package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sample is a condensed transcript of one build carrying both gcflags.
// For each escaping value -m=2 prints an explanation header (trailing
// colon), indented flow lines sharing the position, then the decision;
// only the decisions count. A retained check inside a generic function
// comes once per instantiating package and counts once.
const sample = `# github.com/graphbig/graphbig-go/internal/engine
internal/engine/partitioned.go:64:10: can inline nextStamp with cost 12
internal/engine/partitioned.go:66:14: make([]int64, k) escapes to heap:
internal/engine/partitioned.go:66:14:   flow: {heap} = &{storage for make([]int64, k)}:
internal/engine/partitioned.go:66:14:     from make([]int64, k) (non-constant size) at internal/engine/partitioned.go:66:14
internal/engine/partitioned.go:66:14: make([]int64, k) escapes to heap
internal/engine/partitioned.go:80:2: st escapes to heap:
internal/engine/partitioned.go:80:2:   flow: ~r0 = &st:
internal/engine/partitioned.go:80:2:     from return &st (return) at internal/engine/partitioned.go:82:2
internal/engine/partitioned.go:80:2: moved to heap: st
internal/engine/partitioned.go:173:17: Found IsInBounds
internal/engine/partitioned.go:174:9: Found IsSliceInBounds
internal/concurrent/concurrent.go:287:6: Found IsInBounds
internal/engine/traverse.go:40:9: leaking param: spec
# github.com/graphbig/graphbig-go/internal/workloads
/build/internal/concurrent/concurrent.go:287:6: Found IsInBounds
internal/partition/plan.go:31:12: new(Plan) escapes to heap
internal/csr/csr.go:55:12: Found IsInBounds
`

func TestParseCountsOnlyDecisions(t *testing.T) {
	want := counts{
		"bce": {
			"internal/engine/partitioned.go":    2,
			"internal/concurrent/concurrent.go": 1,
			"internal/csr/csr.go":               1,
		},
		"alloc": {
			"internal/engine/partitioned.go": 2,
			"internal/partition/plan.go":     1,
		},
	}
	if got := parse(sample); !reflect.DeepEqual(got, want) {
		t.Errorf("parse = %v, want %v (headers or flow lines double-counted?)", got, want)
	}
}

func TestParseCountsRepeatedLineOnce(t *testing.T) {
	for _, tc := range []struct{ probe, file, line string }{
		{"bce", "internal/csr/csr.go", "internal/csr/csr.go:55:12: Found IsInBounds\n"},
		{"alloc", "internal/partition/plan.go", "internal/partition/plan.go:31:12: new(Plan) escapes to heap\n"},
	} {
		if n := parse(sample + tc.line)[tc.probe][tc.file]; n != 1 {
			t.Errorf("%s: repeated line counted %d times, want 1", tc.probe, n)
		}
	}
}

// TestDiffFlagsSyntheticRegression is the ratchet probe: a file whose
// count grows past the baseline must be reported as a regression, a
// shrinking one as an improvement, and untouched files as neither.
func TestDiffFlagsSyntheticRegression(t *testing.T) {
	base := map[string]int{
		"internal/engine/partitioned.go": 2,
		"internal/engine/sssp.go":        3,
		"internal/order/bfsorder.go":     1,
	}
	got := map[string]int{
		"internal/engine/partitioned.go":  3, // synthetic new decision
		"internal/engine/sssp.go":         3,
		"internal/order/bfsorder.go":      0,
		"internal/concurrent/frontier.go": 1, // new file: also growth
	}
	for _, p := range probes {
		regressed, improved := diff(base, got, p.noun)
		wantR := []string{
			"REGRESSED internal/concurrent/frontier.go: 0 -> 1 " + p.noun,
			"REGRESSED internal/engine/partitioned.go: 2 -> 3 " + p.noun,
		}
		if !reflect.DeepEqual(regressed, wantR) {
			t.Errorf("%s: regressed = %q, want %q", p.name, regressed, wantR)
		}
		wantI := []string{"improved  internal/order/bfsorder.go: 1 -> 0 " + p.noun}
		if !reflect.DeepEqual(improved, wantI) {
			t.Errorf("%s: improved = %q, want %q", p.name, improved, wantI)
		}
	}
}

// TestBaselineRoundTrip writes a baseline, reads it back, and checks
// every probe's History survives a rewrite — the ratchet's audit trail
// must not be lost when -write accepts a new count.
func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ratchet_baseline.json")
	first := counts{"bce": {"internal/engine/traverse.go": 18}, "alloc": {"internal/engine/traverse.go": 4}}
	if err := writeBaseline(path, first); err != nil {
		t.Fatal(err)
	}
	base, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		if !reflect.DeepEqual(base[p.name].Files, first[p.name]) {
			t.Fatalf("%s: round-trip lost counts: %v", p.name, base[p.name].Files)
		}
	}
	// Inject history entries the way a maintainer would, then rewrite.
	if err := os.WriteFile(path, []byte(`{
		"bce":   {"history": ["bce seed"],   "files": {"internal/engine/traverse.go": 18}},
		"alloc": {"history": ["alloc seed"], "files": {"internal/engine/traverse.go": 4}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	second := counts{"bce": {"internal/engine/traverse.go": 17}, "alloc": {"internal/engine/traverse.go": 3}}
	if err := writeBaseline(path, second); err != nil {
		t.Fatal(err)
	}
	if base, err = readBaseline(path); err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		s := base[p.name]
		if want := []string{p.name + " seed"}; !reflect.DeepEqual(s.History, want) {
			t.Errorf("%s: rewrite dropped History: %v", p.name, s.History)
		}
		if !reflect.DeepEqual(s.Files, second[p.name]) {
			t.Errorf("%s: rewrite kept stale counts: %v", p.name, s.Files)
		}
	}
}

// TestMeasureBaselineCurrent compiles the real hot packages and compares
// against the committed baseline — the same gate CI runs, so a PR that
// adds a retained check or a heap escape fails here first.
func TestMeasureBaselineCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping compiler run in -short mode")
	}
	t.Chdir("../..")
	got, err := measure()
	if err != nil {
		t.Fatal(err)
	}
	base, err := readBaseline("results/ratchet_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		if regressed, _ := diff(base[p.name].Files, got[p.name], p.noun); len(regressed) > 0 {
			t.Errorf("%s regressed vs results/ratchet_baseline.json:\n%s", p.name, regressed)
		}
	}
}
