package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The manifest and the benchmark's own tables name the same workloads and
// metrics, with the same units, directions and bounds.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(m.Workloads), len(benchWorkloads))
	}
	for i, w := range benchWorkloads {
		if got := m.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why breaks the manifest's limits", w.name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the benchmark has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s %q: name, unit or direction breaks the manifest's limits", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s %q: name used twice", kind, d.Name)
			}
			seen[d.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %q: bound %v in BENCHMARK.json, %g in the benchmark", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
}

// One quick run of everything: every workload prints every metric of the
// manifest and no other, verifies clean, and leaves a trace file whose
// spans' self times add up to the trial spans.
func TestQuickRun(t *testing.T) {
	m := readManifest(t)
	out := t.TempDir()
	cfg := config{seed: 42, quick: true, scales: quickScales, outDir: out}
	var report bytes.Buffer
	res, err := runAll(benchWorkloads, cfg, true, true, &report)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(m.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json names %d", len(res.Workloads), len(m.Workloads))
	}
	for i, rec := range res.Workloads {
		if rec.Workload != m.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, rec.Workload, m.Workloads[i].Name)
		}
		if rec.Failed != 0 || rec.VerifyFailRatio != 0 || rec.Attempted == 0 {
			t.Errorf("%s: %d of %d kernel runs failed verification: %v", rec.Workload, rec.Failed, rec.Attempted, rec.Failures)
		}
		line := driverLineOf(rec)
		if len(line.Metrics) != len(m.EndToEnd)+len(m.PerLayer) {
			t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", rec.Workload, len(line.Metrics), len(m.EndToEnd)+len(m.PerLayer))
		}
		for _, d := range append(append([]manifestMetric{}, m.EndToEnd...), m.PerLayer...) {
			got, ok := line.Metrics[d.Name]
			if !ok || got.Unit != d.Unit {
				t.Errorf("%s: metric %s [%s] of BENCHMARK.json is reported as %+v (present: %v)", rec.Workload, d.Name, d.Unit, got, ok)
			}
			if !strings.Contains(report.String(), "  "+d.Name+" ") {
				t.Errorf("%s: the printed report lacks %s", rec.Workload, d.Name)
			}
		}
		for _, d := range m.EndToEnd {
			if v := line.Metrics[d.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", rec.Workload, d.Name, v)
			}
		}
		if rec.PerLayer["trace_coverage_pct"].Median < 90 {
			t.Errorf("%s: the layers' self times cover only %.1f%% of the traced trials", rec.Workload, rec.PerLayer["trace_coverage_pct"].Median)
		}
		checkTraceFile(t, filepath.Join(out, "trace-"+rec.Workload+".json"), rec)
	}
	if left, _ := filepath.Glob(filepath.Join(out, "tmp-*")); len(left) != 0 {
		t.Errorf("temporary input directories were left behind: %v", left)
	}
}

// checkTraceFile reads a trace file back: every span closes after it
// opens and inside its parent, and the self times of a trial's spans sum
// to the trial span.
func checkTraceFile(t *testing.T, path string, rec *record) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Env   environment `json:"env"`
		Spans []span      `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if file.Env.GoVersion == "" || file.Env.GOMAXPROCS == 0 || file.Env.Seed != 42 {
		t.Errorf("%s: environment block is incomplete: %+v", path, file.Env)
	}
	spans := file.Spans
	self := selfSeconds(spans)
	under := make([]float64, len(spans)) // self time summed over a root's subtree
	trials := 0
	for i := len(spans) - 1; i >= 0; i-- { // children follow their parents
		s := spans[i]
		if s.ID != i || s.Workload != rec.Workload || s.EndNS < s.StartNS {
			t.Fatalf("%s: span %d is malformed: %+v", path, i, s)
		}
		under[i] += self[i]
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Parent >= i || s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Trial != p.Trial {
				t.Fatalf("%s: span %d does not nest in its parent %d", path, i, s.Parent)
			}
			under[s.Parent] += under[i]
			continue
		}
		if s.Name == "trial" {
			trials++
			if math.Abs(under[i]-s.seconds()) > 1e-9 {
				t.Errorf("%s: trial %d lasts %.9fs, its spans' self times sum to %.9fs", path, s.Trial, s.seconds(), under[i])
			}
		}
	}
	if trials != rec.Traced || trials == 0 {
		t.Errorf("%s: %d trial spans, the record says %d traced trials", path, trials, rec.Traced)
	}
}

// The command the driver runs: one workload, one mode, the result as the
// last line with exactly the contract's keys and that mode's metrics.
func TestDriverLine(t *testing.T) {
	m := readManifest(t)
	for trace, want := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "partitioned-social", "--seed", "7", "--seconds", "1", "--trace", string(rune('0' + trace)),
			"-quick", "-out", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %d: last line is not JSON: %v", trace, err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Fatalf("trace %d: last line has keys %v", trace, line)
		}
		var metrics map[string]driverMetric
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(want) {
			t.Errorf("trace %d: %d metrics on the last line, want %d", trace, len(metrics), len(want))
		}
		for _, d := range want {
			if got, ok := metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("trace %d: metric %s missing or with unit %q", trace, d.Name, got.Unit)
			}
		}
		if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
			t.Errorf("trace %d: correct=%s failed=%s", trace, line["correct"], line["failed"])
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "no-such"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload must not exit 0")
	}
}

// Hand-made graphs the oracles must get right: two components, a
// self-loop, a duplicate edge and a zero-weight edge.
//
//	0 - 1 (w 2, stored twice each way)   1 - 2 (w 0)   2 - 2 (self-loop)
//	3 - 4 (w 1)                          5 isolated
func handGraph() (off, nbr []int32, w []float64) {
	adj := [][]int32{{1, 1}, {0, 0, 2}, {1, 2}, {4}, {3}, {}}
	wts := [][]float64{{2, 2}, {2, 2, 0}, {0, 5}, {1}, {1}, {}}
	off = []int32{0}
	for i := range adj {
		nbr = append(nbr, adj[i]...)
		w = append(w, wts[i]...)
		off = append(off, int32(len(nbr)))
	}
	return off, nbr, w
}

func TestOraclesOnHandGraph(t *testing.T) {
	off, nbr, w := handGraph()

	lvl := seqBFS(off, nbr, 0)
	if want := []int32{0, 1, 2, -1, -1, -1}; !equalInt32(lvl, want) {
		t.Errorf("seqBFS levels %v, want %v", lvl, want)
	}
	if v, c := bfsSummary(lvl); v != 3 || c != 3 {
		t.Errorf("bfsSummary = %d, %g, want 3, 3", v, c)
	}

	root, comps := unionFind(off, nbr)
	if want := []int32{0, 0, 0, 3, 3, 5}; comps != 3 || !equalInt32(root, want) {
		t.Errorf("unionFind roots %v (%d components), want %v (3)", root, comps, want)
	}

	dist := dijkstra(off, nbr, w, 0)
	inf := math.Inf(1)
	for i, want := range []float64{0, 2, 2, inf, inf, inf} {
		if dist[i] != want {
			t.Errorf("dijkstra dist[%d] = %g, want %g", i, dist[i], want)
		}
	}
	if v, c := distSummary(dist); v != 3 || c != 4 {
		t.Errorf("distSummary = %d, %g, want 3, 4", v, c)
	}

	// Degrees count records: 2, 3, 2 (the self-loop once), 1, 1, 0. Peeling
	// at 1 takes 3 and 4; vertices 0, 1, 2 hold each other at 2.
	core := peelCores(off, nbr)
	if want := []int32{2, 2, 2, 1, 1, 0}; !equalInt32(core, want) {
		t.Errorf("peelCores %v, want %v", core, want)
	}

	if got := labelMismatches(6, func(i int) float64 { return []float64{9, 9, 9, 4, 4, 7}[i] },
		func(i int) float64 { return float64(root[i]) }); got != 0 {
		t.Errorf("a relabelled but equal partition counts %d mismatches", got)
	}
	if got := labelMismatches(6, func(i int) float64 { return []float64{9, 9, 4, 4, 4, 7}[i] },
		func(i int) float64 { return float64(root[i]) }); got == 0 {
		t.Error("a different partition counts no mismatch")
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A result that disagrees with the oracle, errors, or misreports what it
// deleted makes verify_fail_ratio non-zero.
func TestCorruptedResultFails(t *testing.T) {
	want := expectation{visited: 10, checksum: 25}
	good := kernelResult{name: "BFS#0", kernel: "BFS", visited: 10, checksum: 25 * (1 + 1e-12)}
	for _, tc := range []struct {
		name   string
		r      kernelResult
		failed int
	}{
		{"agrees", good, 0},
		{"checksum off", kernelResult{name: "BFS#0", kernel: "BFS", visited: 10, checksum: 25.001}, 1},
		{"visited off", kernelResult{name: "BFS#0", kernel: "BFS", visited: 9, checksum: 25}, 1},
		{"errored", kernelResult{name: "BFS#0", kernel: "BFS", err: os.ErrInvalid}, 1},
		{"GUp misreports", kernelResult{name: "GUp#0", kernel: "GUp", visited: 10, checksum: 25, dV: 10, dE: 24}, 1},
		{"GUp consistent", kernelResult{name: "GUp#0", kernel: "GUp", visited: 10, checksum: 25, dV: 10, dE: 25}, 0},
	} {
		b := &bench{}
		b.check(good, want)
		b.check(tc.r, want)
		if b.attempted != 2 || b.failed != tc.failed {
			t.Errorf("%s: %d of %d failed, want %d of 2", tc.name, b.failed, b.attempted, tc.failed)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "e2e_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	st := func(med, min, max float64) stat { return stat{Median: med, Min: min, Max: max, N: 9} }
	for _, tc := range []struct {
		name       string
		d          metricDef
		base, cand stat
		want       string
	}{
		{"within bound", lower, st(1, 0.98, 1.02), st(1.08, 1.06, 1.10), verdictOK},
		{"faster", lower, st(1, 0.98, 1.02), st(0.5, 0.49, 0.51), verdictOK},
		{"slower, ranges apart", lower, st(1, 0.98, 1.02), st(1.2, 1.15, 1.25), verdictRegressed},
		{"slower, ranges overlap widely", lower, st(1, 0.8, 1.4), st(1.2, 0.9, 1.5), verdictUnresolved},
		{"rate dropped", higher, st(100, 99, 101), st(80, 79, 81), verdictRegressed},
		{"rate rose", higher, st(100, 99, 101), st(120, 119, 121), verdictOK},
	} {
		if got, _ := judge(tc.d, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	rec := func(e2e stat, failed int) *results {
		return &results{Workloads: []*record{{Workload: "w", Attempted: 10, Failed: failed,
			EndToEnd: map[string]stat{"e2e_s": e2e}}}}
	}
	var out bytes.Buffer
	if code := compareResults(rec(st(1, 0.98, 1.02), 0), rec(st(1.01, 0.99, 1.03), 0), &out); code != 0 {
		t.Errorf("two agreeing runs compare as %d:\n%s", code, out.String())
	}
	if code := compareResults(rec(st(1, 0.98, 1.02), 0), rec(st(1.3, 1.28, 1.32), 0), &out); code == 0 {
		t.Error("a 30% regression compares as 0")
	}
	if code := compareResults(rec(st(1, 0.98, 1.02), 0), rec(st(1, 0.98, 1.02), 1), &out); code == 0 {
		t.Error("a run that failed verification compares as 0")
	}
}
