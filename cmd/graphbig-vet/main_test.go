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
// expects zero findings and no text output — the exit-0 smoke test.
func TestVetCleanPackage(t *testing.T) {
	finds, err := analysis.VetAll(Analyzers(), "./internal/stats", "./internal/csr")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeFindings(&out, finds, false); err != nil {
		t.Fatal(err)
	}
	if len(finds) != 0 || out.Len() != 0 {
		t.Fatalf("vet on clean packages reported %d finding(s):\n%s", len(finds), out.String())
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

// TestVetRunFilter: VetAll with a -run subset reports no findings on a
// clean package.
func TestVetRunFilter(t *testing.T) {
	sel, err := selectAnalyzers("determinism,hotloop")
	if err != nil {
		t.Fatal(err)
	}
	finds, err := analysis.VetAll(sel, "./internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	if len(finds) != 0 {
		t.Fatalf("VetAll on a clean package reported %d finding(s)", len(finds))
	}
}

// TestJSONOutputCleanPackage: -json must emit a well-formed (empty) array on
// a clean tree, never null — CI pipes it straight into jq.
func TestJSONOutputCleanPackage(t *testing.T) {
	finds, err := analysis.VetAll(Analyzers(), "./internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeFindings(&out, finds, true); err != nil {
		t.Fatal(err)
	}
	var got []analysis.Finding
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("-json wrote invalid JSON: %v\n%s", err, out.String())
	}
	if got == nil || len(got) != 0 {
		t.Fatalf("-json on a clean package wrote %s, want []", out.String())
	}
}
