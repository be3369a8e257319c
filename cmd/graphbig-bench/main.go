// Command graphbig-bench regenerates the paper's tables and figures from
// the simulators and prints them as text tables (or markdown with -md).
//
// Usage:
//
//	graphbig-bench [-scale 0.02] [-seed 42] [-exp fig05] [-md] [-o out.md]
//
// -scale 1.0 reproduces the paper's dataset sizes (Table 7); the default
// runs a small-scale sweep in minutes. Absolute counter values are model
// outputs, not Xeon/K40 measurements — compare shapes, not magnitudes.
// -order composes a vertex reordering (internal/order) into every dataset
// view. Wall-clock is measured elsewhere: `go run ./benchmark`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/graphbig/graphbig-go/internal/harness"
	"github.com/graphbig/graphbig-go/internal/order"
)

func main() {
	cfg := harness.DefaultConfig()
	scale := flag.Float64("scale", cfg.Scale, "fraction of paper-scale dataset sizes")
	seed := flag.Int64("seed", cfg.Seed, "generation seed")
	exp := flag.String("exp", "", "experiment id(s), comma-separated (e.g. fig05,fig07); empty = all")
	input := flag.String("input", "", "graph file (SNAP or graphbig v1 edge list, plain or gzipped) substituted for generated datasets")
	ordering := flag.String("order", "", "vertex ordering for dataset views: "+order.FlagUsage())
	md := flag.Bool("md", false, "emit markdown tables")
	csvOut := flag.Bool("csv", false, "emit CSV rows")
	chart := flag.Bool("chart", false, "append an ASCII bar chart of each report's last column")
	out := flag.String("o", "", "write output to file instead of stdout")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Order = *ordering
	cfg.Input = *input
	s := harness.NewSession(cfg)

	var reports []harness.Report
	start := time.Now()
	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			e, err := harness.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			r, err := e.Run(s)
			if err != nil {
				fatal(err)
			}
			reports = append(reports, r)
		}
	} else {
		var err error
		reports, err = harness.RunAll(s)
		if err != nil {
			fatal(err)
		}
	}

	var b strings.Builder
	switch {
	case *csvOut:
		for _, r := range reports {
			b.WriteString(r.CSV())
			b.WriteByte('\n')
		}
	case *md:
		fmt.Fprintf(&b, "# GraphBIG-Go experiment results\n\nscale=%.3g seed=%d elapsed=%s\n\n",
			cfg.Scale, cfg.Seed, time.Since(start).Round(time.Millisecond))
		for _, r := range reports {
			b.WriteString(r.Markdown())
		}
	default:
		for _, r := range reports {
			b.WriteString(r.String())
			if *chart && len(r.Headers) > 0 {
				if c := r.Chart(len(r.Headers) - 1); c != "" {
					b.WriteByte('\n')
					b.WriteString(c)
				}
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "elapsed: %s\n", time.Since(start).Round(time.Millisecond))
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(b.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphbig-bench:", err)
	os.Exit(1)
}
