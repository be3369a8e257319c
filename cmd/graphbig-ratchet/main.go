// Command graphbig-ratchet is the compiler-truth side of the boundscheck
// and escape analyzers. It compiles the hot packages once with the
// compiler's own diagnostics switched on, counts per file what each
// probe looks for, and ratchets the counts against
// results/ratchet_baseline.json:
//
//   - bce: the IsInBounds / IsSliceInBounds checks the prove pass
//     RETAINED (-d=ssa/check_bce/debug=1);
//   - alloc: the heap-escape decisions ("moved to heap: x", "... escapes
//     to heap") of escape analysis (-m=2).
//
// The analyzers reason about what should be provable or should stay on
// the stack; this tool measures what the compiler decided. The two
// disagree at the margins, so the contract is a ratchet, not equality: a
// change that grows a file's count — a retained check or a per-call
// allocation in steady-state traversal code, which a timing cannot
// localize — fails CI until the baseline is rewritten with -write.
//
// Only decision lines are counted, and an identical line once. For each
// escaping value -m=2 prints an explanation header ("x escapes to heap:",
// trailing colon), indented flow lines and then the decision, so the
// alloc pattern is anchored at the line end. Under -m the compiler also
// prints every diagnostic as it is produced instead of sorting them and
// dropping adjacent duplicates at exit, so a finding inside an inlined or
// generic function comes once per copy, in whichever package compiled
// it. Counting distinct lines counts source positions.
//
// The build runs under a throwaway GOCACHE: a cached package skips the
// compiler and reports nothing, which would let regressions hide.
//
// Usage:
//
//	go run ./cmd/graphbig-ratchet           # compare against the baseline
//	go run ./cmd/graphbig-ratchet -write   # rewrite the baseline
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const module = "github.com/graphbig/graphbig-go"

// probe is one compiler diagnostic the ratchet counts.
type probe struct {
	name   string         // section of the baseline file
	gcflag string         // switches the diagnostic on
	re     *regexp.Regexp // a counted line; submatch 1 is the file
	pkgs   []string       // packages compiled with gcflag
	noun   string
	advice string
}

var probes = []probe{{
	name:   "bce",
	gcflag: "-d=ssa/check_bce/debug=1",
	re:     regexp.MustCompile(`^(.*\.go):\d+:\d+: Found Is(?:Slice)?InBounds$`),
	// The boundscheck analyzer's scope: inner loops that pay per edge.
	pkgs:   []string{"internal/engine", "internal/csr", "internal/concurrent", "internal/workloads"},
	noun:   "retained bounds checks",
	advice: "eliminate the checks",
}, {
	name:   "alloc",
	gcflag: "-m=2",
	re:     regexp.MustCompile(`^(.*\.go):\d+:\d+: (?:moved to heap: .+|.+ escapes to heap)$`),
	// The engine and its scaffolding, the kernels, and the ordering and
	// partitioning layers whose scratch arrays must stay amortized.
	pkgs:   []string{"internal/engine", "internal/concurrent", "internal/workloads", "internal/order", "internal/partition"},
	noun:   "heap escapes",
	advice: "keep the value on the stack",
}}

// section is one probe's part of the baseline file.
type section struct {
	History []string       `json:"history,omitempty"` // hand-written notes on notable movements; -write keeps them
	Files   map[string]int `json:"files"`
}

// counts maps probe name to per-file counts, keyed by module-relative path.
type counts map[string]map[string]int

func main() {
	write := flag.Bool("write", false, "rewrite the baseline with the measured counts")
	path := flag.String("baseline", "results/ratchet_baseline.json", "baseline file")
	flag.Parse()

	got, err := measure()
	if err != nil {
		fatal(err)
	}
	if *write {
		if err := writeBaseline(*path, got); err != nil {
			fatal(err)
		}
		for _, p := range probes {
			fmt.Printf("graphbig-ratchet: %s: wrote %s (%d files, %d %s)\n",
				p.name, *path, len(got[p.name]), total(got[p.name]), p.noun)
		}
		return
	}
	base, err := readBaseline(*path)
	if err != nil {
		fatal(err)
	}
	failed := false
	for _, p := range probes {
		regressed, improved := diff(base[p.name].Files, got[p.name], p.noun)
		for _, line := range append(regressed, improved...) {
			fmt.Println(line)
		}
		fmt.Printf("graphbig-ratchet: %s: %d %s across %d hot packages (baseline %d)\n",
			p.name, total(got[p.name]), p.noun, len(p.pkgs), total(base[p.name].Files))
		switch {
		case len(regressed) > 0:
			fmt.Printf("graphbig-ratchet: %s regression; %s or rerun with -write to accept\n", p.name, p.advice)
			failed = true
		case len(improved) > 0:
			fmt.Printf("graphbig-ratchet: %s improvement — rerun with -write to ratchet the baseline down\n", p.name)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphbig-ratchet:", err)
	os.Exit(2)
}

// measure compiles every probed package once under a throwaway GOCACHE,
// each with the gcflags of the probes that list it, and counts the
// transcript.
func measure() (counts, error) {
	cache, err := os.MkdirTemp("", "graphbig-ratchet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cache)
	var pkgs []string
	flags := map[string]string{}
	for _, p := range probes {
		for _, pkg := range p.pkgs {
			if flags[pkg] == "" {
				pkgs = append(pkgs, pkg)
			}
			flags[pkg] += " " + p.gcflag
		}
	}
	args := []string{"build"}
	for _, pkg := range pkgs {
		args = append(args, "-gcflags="+module+"/"+pkg+"="+flags[pkg])
	}
	for _, pkg := range pkgs {
		args = append(args, "./"+pkg)
	}
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOCACHE="+cache)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build failed: %v\n%s", err, out)
	}
	return parse(string(out)), nil
}

// parse extracts every probe's per-file counts from a compiler transcript.
func parse(out string) counts {
	got := counts{}
	for _, p := range probes {
		got[p.name] = map[string]int{}
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		for _, p := range probes {
			m := p.re.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			file := relPath(m[1], p.pkgs)
			if key := file + line[len(m[1]):]; !seen[key] {
				seen[key] = true
				got[p.name][file]++
			}
		}
	}
	return got
}

// relPath normalizes a compiler-reported filename (absolute or
// build-dir relative) to a module-relative, slash-separated path.
func relPath(name string, pkgs []string) string {
	name = filepath.ToSlash(name)
	for _, p := range pkgs {
		if i := strings.Index(name, p+"/"); i >= 0 {
			return name[i:]
		}
	}
	return strings.TrimPrefix(name, "./")
}

// readBaseline returns a section for every probe, empty if the file has none.
func readBaseline(path string) (map[string]*section, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%v (run with -write to create the baseline)", err)
	}
	base := map[string]*section{}
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	for _, p := range probes {
		if base[p.name] == nil {
			base[p.name] = &section{}
		}
	}
	return base, nil
}

// writeBaseline replaces every probe's counts and keeps its History.
func writeBaseline(path string, got counts) error {
	base, err := readBaseline(path)
	if err != nil {
		base = map[string]*section{} // first write: no history to keep
	}
	for _, p := range probes {
		if base[p.name] == nil {
			base[p.name] = &section{}
		}
		base[p.name].Files = got[p.name]
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // history notes read "28 -> 15"
	enc.SetIndent("", "  ")
	if err := enc.Encode(base); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// diff returns regression and improvement report lines comparing
// measured counts to the baseline.
func diff(base, got map[string]int, noun string) (regressed, improved []string) {
	files := make([]string, 0, len(base)+len(got))
	for f := range base {
		files = append(files, f)
	}
	for f := range got {
		if _, ok := base[f]; !ok {
			files = append(files, f)
		}
	}
	sort.Strings(files)
	for _, f := range files {
		switch b, g := base[f], got[f]; {
		case g > b:
			regressed = append(regressed, fmt.Sprintf("REGRESSED %s: %d -> %d %s", f, b, g, noun))
		case g < b:
			improved = append(improved, fmt.Sprintf("improved  %s: %d -> %d %s", f, b, g, noun))
		}
	}
	return regressed, improved
}

func total(files map[string]int) int {
	n := 0
	for _, c := range files {
		n += c
	}
	return n
}
