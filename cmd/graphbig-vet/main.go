// Command graphbig-vet runs the project's invariant analyzers over the
// module. It is a required CI step; run it locally with:
//
//	go run ./cmd/graphbig-vet ./...
//
// The suite is what a catch matrix over seeded bugs
// (results/vet_catch_matrix.json) showed no other detector covers — go
// vet, the race detector, the tests, the benchmark's oracles and the
// compiler ratchet. Three per-package syntactic analyzers: determinism (no
// map-order, clock or global-rand nondeterminism in parity code, sorted map
// output in reports), hotloop (no map access, allocation or interface
// conversion in per-edge loops) and overflowconv (no non-constant
// narrowing integer conversion outside the checked helpers in
// internal/narrow). DESIGN.md §7 has the matrix's verdict per analyzer.
//
// Flags:
//
//	-run a,b,...    run only the named analyzers (default: the full suite)
//	-list           print the registered analyzers with their one-line docs
//	-timings        print per-analyzer wall-clock to stderr after the run
//	-timings-out f  write the same numbers as a JSON array to f
//	-json           emit the findings as JSON instead of text
//
// Exit status is 0 when the tree is clean, 1 when any analyzer reports a
// finding, 2 on internal failure (package loading, type errors, unknown
// flag values).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/graphbig/graphbig-go/internal/analysis"
	"github.com/graphbig/graphbig-go/internal/analysis/determinism"
	"github.com/graphbig/graphbig-go/internal/analysis/hotloop"
	"github.com/graphbig/graphbig-go/internal/analysis/overflowconv"
)

// Analyzers returns the full registered suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		hotloop.Analyzer,
		overflowconv.Analyzer,
	}
}

// selectAnalyzers filters the suite by a comma-separated -run list,
// preserving suite order. An empty list selects everything; an unknown
// name is an error naming the valid choices.
func selectAnalyzers(runList string) ([]*analysis.Analyzer, error) {
	all := Analyzers()
	if runList == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	var names []string
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(runList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if byName[name] == nil {
			return nil, fmt.Errorf("unknown analyzer %q (choose from %s)", name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	var sel []*analysis.Analyzer
	for _, a := range all {
		if want[a.Name] {
			sel = append(sel, a)
		}
	}
	return sel, nil
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	timings := flag.Bool("timings", false, "print per-analyzer wall-clock to stderr")
	timingsOut := flag.String("timings-out", "", "write per-analyzer wall-clock as a JSON array to this file (the CI trajectory artifact)")
	list := flag.Bool("list", false, "print every registered analyzer with its one-line doc and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: graphbig-vet [-list] [-run a,b,...] [-timings] [-timings-out f.json] [-json] [packages]\n\nanalyzers:\n%s", analysis.Doc(Analyzers()))
	}
	flag.Parse()
	if *list {
		fmt.Print(analysis.Doc(Analyzers()))
		return
	}
	selected, err := selectAnalyzers(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphbig-vet:", err)
		os.Exit(2)
	}
	res, err := analysis.VetAll(selected, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphbig-vet:", err)
		os.Exit(2)
	}
	if *timings {
		total := 0.0
		for _, t := range res.Timings {
			fmt.Fprintf(os.Stderr, "graphbig-vet: %-16s %8.3fs\n", t.Analyzer, t.Seconds)
			total += t.Seconds
		}
		fmt.Fprintf(os.Stderr, "graphbig-vet: %-16s %8.3fs\n", "total", total)
	}
	if *timingsOut != "" {
		buf, err := json.MarshalIndent(res.Timings, "", "  ")
		if err == nil {
			err = os.WriteFile(*timingsOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphbig-vet:", err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		finds := res.Findings
		if finds == nil {
			finds = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(finds); err != nil {
			fmt.Fprintln(os.Stderr, "graphbig-vet:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range res.Findings {
			fmt.Fprintf(os.Stdout, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if n := len(res.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "graphbig-vet: %d finding(s)\n", n)
		os.Exit(1)
	}
}
