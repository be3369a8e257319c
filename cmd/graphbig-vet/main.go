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
	"io"
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

// writeFindings prints finds to w: one "file:line:col: message [analyzer]"
// line each, the format the CI problem matcher parses, or with asJSON an
// indented JSON array ("[]", never null, for a clean tree).
func writeFindings(w io.Writer, finds []analysis.Finding, asJSON bool) error {
	if !asJSON {
		for _, f := range finds {
			if _, err := fmt.Fprintf(w, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer); err != nil {
				return err
			}
		}
		return nil
	}
	if finds == nil {
		finds = []analysis.Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(finds)
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "print every registered analyzer with its one-line doc and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: graphbig-vet [-list] [-run a,b,...] [-json] [packages]\n\nanalyzers:\n%s", analysis.Doc(Analyzers()))
	}
	flag.Parse()
	if *list {
		fmt.Print(analysis.Doc(Analyzers()))
		return
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "graphbig-vet:", err)
		os.Exit(2)
	}
	selected, err := selectAnalyzers(*runList)
	if err != nil {
		fail(err)
	}
	finds, err := analysis.VetAll(selected, flag.Args()...)
	if err != nil {
		fail(err)
	}
	if err := writeFindings(os.Stdout, finds, *jsonOut); err != nil {
		fail(err)
	}
	if n := len(finds); n > 0 {
		fmt.Fprintf(os.Stderr, "graphbig-vet: %d finding(s)\n", n)
		os.Exit(1)
	}
}
