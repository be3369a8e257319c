package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

// TestAnalyzersRegistered asserts the full suite is wired into the
// multichecker with documentation and a per-package runner.
func TestAnalyzersRegistered(t *testing.T) {
	as := Analyzers()
	want := []string{"determinism", "hotloop", "overflowconv"}
	if len(as) != len(want) {
		t.Fatalf("Analyzers() = %d analyzers, want %d", len(as), len(want))
	}
	for i, a := range as {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no runner", a.Name)
		}
	}
	if doc := analysis.Doc(as); doc == "" {
		t.Error("Doc() rendered empty help text")
	}
}

// TestVetCleanPackage runs the suite over known-clean module packages and
// expects zero findings — the exit-0 smoke test.
func TestVetCleanPackage(t *testing.T) {
	var out bytes.Buffer
	n, err := analysis.Vet(&out, Analyzers(), "./internal/stats", "./internal/csr")
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("Vet on clean packages reported %d finding(s):\n%s", n, out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("Vet wrote output with zero findings:\n%s", out.String())
	}
}

// TestSelectAnalyzers covers the -run filter: an empty list selects the
// whole suite, a subset comes back in suite order regardless of the
// flag's order, whitespace and duplicates are tolerated, and an unknown
// name is rejected with the valid choices.
func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Analyzers()) {
		t.Fatalf("empty -run selected %d analyzers, want %d", len(all), len(Analyzers()))
	}

	sel, err := selectAnalyzers("overflowconv, hotloop ,hotloop")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(sel))
	for i, a := range sel {
		got[i] = a.Name
	}
	want := []string{"hotloop", "overflowconv"}
	if len(got) != len(want) {
		t.Fatalf("selectAnalyzers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selectAnalyzers = %v, want %v (suite order)", got, want)
		}
	}

	if _, err := selectAnalyzers("hotlop"); err == nil {
		t.Fatal("selectAnalyzers accepted an unknown analyzer name")
	} else if !strings.Contains(err.Error(), "hotlop") || !strings.Contains(err.Error(), "hotloop") {
		t.Fatalf("unknown-analyzer error should name the typo and the choices: %v", err)
	}

	if _, err := selectAnalyzers(" , "); err == nil {
		t.Fatal("selectAnalyzers accepted a list selecting nothing")
	}
}

// TestVetRunFilterTimings: VetAll with a -run subset reports one timing
// entry per selected analyzer and no findings on a clean package.
func TestVetRunFilterTimings(t *testing.T) {
	sel, err := selectAnalyzers("determinism,hotloop")
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.VetAll(sel, "./internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("VetAll on a clean package reported %d finding(s)", len(res.Findings))
	}
	if len(res.Timings) != 2 || res.Timings[0].Analyzer != "determinism" || res.Timings[1].Analyzer != "hotloop" {
		t.Fatalf("VetAll timings = %+v, want one entry per selected analyzer in order", res.Timings)
	}
	for _, tm := range res.Timings {
		if tm.Seconds < 0 {
			t.Fatalf("negative wall-clock for %s", tm.Analyzer)
		}
	}
}

// TestVetJSONCleanPackage: -json must emit a well-formed (empty) array on
// a clean tree, never null — CI pipes it straight into jq.
func TestVetJSONCleanPackage(t *testing.T) {
	var out bytes.Buffer
	n, err := analysis.VetJSON(&out, Analyzers(), "./internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("VetJSON on a clean package reported %d finding(s):\n%s", n, out.String())
	}
	var finds []analysis.Finding
	if err := json.Unmarshal(out.Bytes(), &finds); err != nil {
		t.Fatalf("VetJSON wrote invalid JSON: %v\n%s", err, out.String())
	}
	if finds == nil {
		t.Fatalf("VetJSON wrote null, want []: %s", out.String())
	}
}
