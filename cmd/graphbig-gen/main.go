// Command graphbig-gen generates one of the five GraphBIG datasets and
// writes it as an edge-list file.
//
// Usage:
//
//	graphbig-gen -dataset ldbc -scale 0.1 -seed 42 -o ldbc.el
//	graphbig-gen -list
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/loader"
)

func main() {
	dataset := flag.String("dataset", "ldbc", "dataset name (see -list)")
	scale := flag.Float64("scale", 0.02, "fraction of the paper-scale size (Table 7)")
	seed := flag.Int64("seed", 42, "generation seed")
	out := flag.String("o", "", "output file (default <dataset>.el)")
	list := flag.Bool("list", false, "list datasets and exit")
	stats := flag.Bool("stats", false, "print the degree histogram after generating")
	flag.Parse()

	if *list {
		for _, d := range gen.Catalog {
			fmt.Printf("%-12s %-12s paper scale: %d vertices / %d edges\n",
				d.Name, d.Type.String(), d.PaperV, d.PaperE)
		}
		return
	}

	d, err := gen.ByName(*dataset)
	if err != nil {
		fatal(err)
	}
	if err := gen.CheckScale(*scale, d); err != nil {
		fatal(err)
	}
	g := d.Generate(*scale, *seed, 0)
	p := gen.Summarize(g)
	path := *out
	if path == "" {
		path = *dataset + ".el"
	}
	if err := loader.Save(path, g); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d vertices, %d edges (avg deg %.2f, max %d) -> %s\n",
		*dataset, p.V, p.E, p.AvgDeg, p.MaxDeg, path)
	if *stats {
		fmt.Printf("degree CV %.2f, %d isolated\ndegree histogram:\n%s",
			p.DegCV, p.Isolated, p.DegreeHst.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphbig-gen:", err)
	os.Exit(1)
}
