package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/harness"
	"github.com/graphbig/graphbig-go/internal/loader"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/simt"
)

// bin is the graphbig binary TestMain builds for the tests that drive it.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "graphbig-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "graphbig")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI runs the built binary with args and returns its output and exit
// status. A case still running after 30 s fails the test.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("graphbig %v: still running after 30s", args)
	}
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("graphbig %v: %v", args, err)
	}
	return so.String(), se.String(), cmd.ProcessState.ExitCode()
}

// TestHostileCommandLines runs the built binary on input a user can get
// wrong — empty, truncated and oddly formatted files, the largest IDs,
// flag values outside their range — and holds every case to an exit
// status plus either the first line of stderr or the result line of
// stdout. A panic exits 2 and a hang trips the per-case timeout, so
// neither can pass.
func TestHostileCommandLines(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	gz := func(data []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(data)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// The same graph three ways: generated in-process by the flags below,
	// and as the file graphbig-gen would write, plain and gzipped.
	small := []string{"-dataset", "ldbc", "-scale", "0.002"}
	ldbc, err := gen.ByName("ldbc")
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := loader.Write(&v1, ldbc.Generate(0.002, 42, 1)); err != nil {
		t.Fatal(err)
	}
	var path bytes.Buffer // a 3000-edge SNAP path, to be cut mid-stream
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&path, "%d %d\n", i, i+1)
	}
	zpath := gz(path.Bytes())
	// The same stream cut where what inflates ends in a lone token, which
	// is no `src dst` line: the truncation must win over the fragment.
	var zfrag []byte
	fragLine := 0
	for short := 9; zfrag == nil; short++ {
		zr, err := gzip.NewReader(bytes.NewReader(zpath[:len(zpath)-short]))
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(zr)
		last := text[bytes.LastIndexByte(text, '\n')+1:]
		if len(last) > 0 && !bytes.ContainsRune(last, ' ') {
			zfrag, fragLine = zpath[:len(zpath)-short], bytes.Count(text, []byte("\n"))+1
		}
	}

	result := regexp.MustCompile(`(?m)^\w+: visited=\d+ checksum=\S+`)
	stdout, stderr, exit := runCLI(t, small...)
	ref := result.FindString(stdout)
	if exit != 0 || ref == "" {
		t.Fatalf("reference run: exit %d\n%s%s", exit, stdout, stderr)
	}

	type hostile struct {
		name string
		args []string
		exit int
		want string // exit 0: the result line; otherwise: a prefix of stderr's first line
	}
	cases := []hostile{
		{"empty file", []string{"-input", file("empty", nil)}, 1, "graphbig: loader: no edges in SNAP input"},
		{"comments only", []string{"-input", file("comments", []byte("# a\n# b\n"))}, 1, "graphbig: loader: no edges in SNAP input"},
		{"missing file", []string{"-input", filepath.Join(dir, "absent")}, 1, "graphbig: open "},
		{"gzip header only", []string{"-input", file("cut0.gz", zpath[:6])}, 1, "graphbig: loader: gzip: "},
		{"gzip cut mid-stream", []string{"-input", file("cut.gz", zpath[:len(zpath)/2])}, 1, "graphbig: loader: line "},
		{"gzip cut inside a line", []string{"-input", file("frag.gz", zfrag)}, 1, fmt.Sprintf("graphbig: loader: line %d: unexpected EOF", fragLine)},
		{"largest IDs", []string{"-input", file("big", []byte(
			"18446744073709551615 9223372036854775807\n9223372036854775807 1\n1 18446744073709551615\n"))}, 0, "BFS: visited=3 checksum=3"},
		{"ID past uint64", []string{"-input", file("over", []byte("18446744073709551616 1\n"))}, 1, "graphbig: loader: line 1: "},
		{"trace file as a graph", []string{"-input", file("bfs.gbt", append([]byte("GBT1\x04\x01\x02 \x03\x01 \x90\x81 \x90\x01"), bytes.Repeat([]byte{0xf0, 0xb6}, 512)...))}, 1,
			"graphbig: loader: line 1: want `src dst [weight]`, got \"GBT1\\x04\\x01\\x02 \\x03\\x01 \\x90\\x81 \\x90\\x01\\xf0\\xb6\\xf0\\xb6\"..."},
		{"v1 file", []string{"-input", file("v1", v1.Bytes())}, 0, ref},
		{"v1 file gzipped", []string{"-input", file("v1.gz", gz(v1.Bytes()))}, 0, ref},
		{"delta NaN", append([]string{"-workload", "SPathDelta", "-delta", "NaN"}, small...), 1, "graphbig: workloads: SPathDelta: delta NaN "},
		{"delta negative", append([]string{"-workload", "SPathDelta", "-delta", "-1"}, small...), 1, "graphbig: workloads: SPathDelta: delta -1 "},
		{"delta +Inf", append([]string{"-workload", "SPathDelta", "-delta", "+Inf"}, small...), 1, "graphbig: workloads: SPathDelta: delta +Inf "},
		{"delta 1e-300", append([]string{"-workload", "SPathDelta", "-delta", "1e-300"}, small...), 1, "graphbig: workloads: SPathDelta: delta 1e-300 "},
		{"retired partitions flag", append([]string{"-partitions", "4"}, small...), 2, "flag provided but not defined: -partitions"},
		{"workers 1024", append([]string{"-workers", "1024"}, small...), 0, ref},
		{"workers 1025", append([]string{"-workers", "1025"}, small...), 1, "graphbig: -workers 1025 is outside [0, 1024]"},
		{"workers negative", append([]string{"-workers", "-1"}, small...), 1, "graphbig: -workers -1 is outside [0, 1024]"},
		{"scale zero", []string{"-scale", "0"}, 0, "BFS: visited=64 "},
		{"scale negative", []string{"-scale", "-1"}, 0, "BFS: visited=64 "},
		{"scale NaN", []string{"-scale", "NaN"}, 1, "graphbig: gen: scale NaN is not a finite number"},
		{"scale +Inf", []string{"-scale", "+Inf"}, 1, "graphbig: gen: scale +Inf is not a finite number"},
		{"scale NaN with a file", []string{"-scale", "NaN", "-input", file("v1n", v1.Bytes())}, 1, "graphbig: gen: scale NaN is not a finite number"},
		{"scale 1e300", []string{"-scale", "1e300"}, 1, "graphbig: gen: scale 1e+300 gives ldbc "},
		{"scale past the View's offsets", []string{"-dataset", "twitter", "-scale", "13"}, 1, "graphbig: gen: scale 13 gives twitter 2.21e+09 edge records"},
		{"unknown dataset", []string{"-dataset", "nope"}, 1, `graphbig: gen: unknown dataset "nope"`},
		{"unknown order", []string{"-order", "nope"}, 1, `graphbig: order: unknown strategy "nope"`},
		{"unknown workload", []string{"-workload", "nope"}, 1, `graphbig: core: unknown workload "nope"`},
		{"deleted CCentr", []string{"-workload", "CCentr"}, 1, `graphbig: core: unknown workload "CCentr"`},
		{"deleted CCompLP", []string{"-workload", "CCompLP"}, 1, `graphbig: core: unknown workload "CCompLP"`},
		{"trace inst count 2^56", []string{"-trace-in", file("inst56.gbt", binary.AppendUvarint([]byte("GBT1\x02"), 1<<56))}, 1,
			"graphbig: trace: inst count 72057594037927936 out of range"},
		{"trace branch site 2^35", []string{"-trace-in", file("site35.gbt", binary.AppendUvarint([]byte("GBT1\x03"), 1<<36))}, 1,
			"graphbig: trace: branch site 34359738368 out of range"},
	}
	// Delta-stepping inputs whose bucket indices outrun any dense array: a
	// path with one edge a trillion widths long, one whose quotient passes
	// the largest int, and a width far below LDBC's integer weights. Each
	// must come out as Bellman-Ford says, native and profiled.
	for _, in := range []struct {
		name string
		args []string
		g    *property.Graph
	}{
		{"1e12 edge", []string{"-input", file("path1e12", heavyPath("1e12"))}, nil},
		{"1e19 edge", []string{"-input", file("path1e19", heavyPath("1e19"))}, nil},
		{"delta 1e-9", append([]string{"-delta", "1e-9"}, small...), ldbc.Generate(0.002, 42, 0)},
	} {
		g := in.g
		if g == nil {
			if g, err = loader.Load(in.args[1]); err != nil {
				t.Fatal(err)
			}
		}
		for _, mode := range [][]string{nil, {"-profile"}} {
			args := append(append([]string{"-workload", "SPathDelta"}, in.args...), mode...)
			cases = append(cases, hostile{fmt.Sprint("SPathDelta ", in.name, mode), args, 0, bellmanFordLine(g)})
		}
	}
	for _, tc := range cases {
		stdout, stderr, exit := runCLI(t, tc.args...)
		got, _, _ := strings.Cut(stderr, "\n")
		if exit == 0 {
			got = result.FindString(stdout)
		}
		if exit != tc.exit || !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s: exit %d, %q; want exit %d, %q…\nstderr: %s", tc.name, exit, got, tc.exit, tc.want, stderr)
		}
	}
}

// TestGPUModeWithoutKernel asks for the GPU run of the workloads that have
// no GPU kernel: graphbig must fail before it builds a dataset, so nothing
// reaches stdout, not even the input line.
func TestGPUModeWithoutKernel(t *testing.T) {
	for _, wl := range []string{"DFS", "Gibbs"} {
		stdout, stderr, exit := runCLI(t, "-workload", wl, "-gpu")
		want := "graphbig: core: " + wl + " has no GPU implementation\n"
		if exit != 1 || stdout != "" || stderr != want {
			t.Errorf("%s -gpu: exit %d, stdout %q, stderr %q; want exit 1, no stdout, stderr %q", wl, exit, stdout, stderr, want)
		}
	}
}

// TestInstrumentedModesPrintTheSession holds the CLI's instrumented modes
// to the numbers graphbig-bench archives, computed in-process by a
// harness session of the same scale and seed: -profile prints the
// session's counters for a traversal, a mutating and the Bayes workload,
// and for a traversal under an ordering;
// -gpu prints the device statistics of a run on the session's CSR; and a
// -trace-out recording replayed with -trace-in under the same -scale
// prints -profile's counters again.
func TestInstrumentedModesPrintTheSession(t *testing.T) {
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.005
	s := harness.NewSession(cfg)
	args := func(wl string, mode ...string) []string {
		return append([]string{"-workload", wl, "-dataset", "ldbc", "-scale", "0.005"}, mode...)
	}
	check := func(name string, mode []string, want string) {
		t.Helper()
		stdout, stderr, exit := runCLI(t, mode...)
		if exit != 0 || !strings.HasSuffix(stdout, want) {
			t.Errorf("%s: exit %d, stdout\n%s\nwant it to end in\n%s\nstderr: %s", name, exit, stdout, want, stderr)
		}
	}
	profiles := make(map[string]string)
	for _, wl := range []string{"BFS", "kCore", "GUp", "Gibbs"} {
		m, err := s.Profile(wl, "ldbc")
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		printMetrics(&want, m)
		profiles[wl] = want.String()
		check(wl+" -profile", args(wl, "-profile"), profiles[wl])
	}
	// An ordering re-lays-out the profiled graph in view order, in the
	// CLI as in the session.
	cfg.Order = "rcm"
	m, err := harness.NewSession(cfg).Profile("BFS", "ldbc")
	if err != nil {
		t.Fatal(err)
	}
	var ordered strings.Builder
	printMetrics(&ordered, m)
	if ordered.String() == profiles["BFS"] {
		t.Error("BFS profiles the same under -order rcm as without it")
	}
	check("BFS -order rcm -profile", args("BFS", "-order", "rcm", "-profile"), ordered.String())

	c, err := s.CSR("ldbc")
	if err != nil {
		t.Fatal(err)
	}
	kcore, err := core.ByName("kCore")
	if err != nil {
		t.Fatal(err)
	}
	d := simt.NewDevice(s.Cfg.GPU)
	if _, err := kcore.RunGPU(d, c); err != nil {
		t.Fatal(err)
	}
	var dev strings.Builder
	printDevice(&dev, d)
	check("kCore -gpu", args("kCore", "-gpu"), dev.String())

	for _, wl := range []string{"BFS", "Gibbs"} {
		path := filepath.Join(t.TempDir(), wl+".gbt")
		if _, stderr, exit := runCLI(t, args(wl, "-trace-out", path)...); exit != 0 {
			t.Fatalf("%s -trace-out: exit %d\n%s", wl, exit, stderr)
		}
		check(wl+" -trace-in", []string{"-trace-in", path, "-scale", "0.005"}, profiles[wl])
	}
}

// heavyPath is a 6000-edge SNAP path of unit weights but one, w, placed
// where SPathDelta's strided weight sample does not look, so the sampled
// bucket width stays 1.
func heavyPath(w string) []byte {
	var buf bytes.Buffer
	for i := 0; i < 6000; i++ {
		wt := "1"
		if i == 3001 {
			wt = w
		}
		fmt.Fprintf(&buf, "%d %d %s\n", i, i+1, wt)
	}
	return buf.Bytes()
}

// bellmanFordLine is the SPathDelta result line graphbig must print for g:
// the vertices Bellman-Ford reaches from the default source (ID 0 when
// present, else the first vertex) and their distance sum in view order.
func bellmanFordLine(g *property.Graph) string {
	vw := g.View()
	src := vw.IndexOf(0)
	if src < 0 {
		src = 0
	}
	dist := make([]float64, vw.Len())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for u, du := range dist {
			wts := vw.AdjW(int32(u))
			for j, v := range vw.Adj(int32(u)) {
				if nd := du + wts[j]; nd < dist[v] {
					dist[v], changed = nd, true
				}
			}
		}
	}
	visited, sum := 0, 0.0
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			visited++
			sum += d
		}
	}
	return fmt.Sprintf("SPathDelta: visited=%d checksum=%g", visited, sum)
}

// TestListPrintsRegistry holds -list to the registry: one row per Table 4
// workload and then one per extension, in order, with the GPU mark exactly
// on the GPU workloads and the extension mark exactly on the extensions.
func TestListPrintsRegistry(t *testing.T) {
	stdout, stderr, exit := runCLI(t, "-list")
	if exit != 0 {
		t.Fatalf("exit %d: %s", exit, stderr)
	}
	entries := slices.Concat(core.Workloads, core.Extensions)
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != len(entries)+1 {
		t.Fatalf("%d lines for %d registry entries:\n%s", len(lines), len(entries), stdout)
	}
	// Columns are fixed-width; the GPU mark sits after name, type and
	// category, the extension mark one column further.
	const gpuMark = 10 + 1 + 11 + 1 + 27 + 1
	const extMark = gpuMark + 4 + 1
	for i, w := range entries {
		row, ext := lines[i+1], i >= len(core.Workloads)
		if strings.Fields(row)[0] != w.Name || len(row) <= extMark ||
			(row[gpuMark] == '*') != w.GPU() || (row[extMark] == '*') != ext {
			t.Errorf("row %d: %q, want %s with GPU %v, extension %v", i, row, w.Name, w.GPU(), ext)
		}
	}
}
