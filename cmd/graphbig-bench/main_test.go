package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/loader"
)

// TestHostileCommandLines is cmd/graphbig's table for this binary: input
// files a user can get wrong, substituted for every dataset through -input,
// and flag values outside their range, each held to an exit status plus
// either the first line of stderr or a line of the report. tab05 only loads
// the graph; fig10 also views it and runs the GPU kernels on its CSR. A
// panic exits 2 and a hang trips the per-case timeout, so neither can pass.
func TestHostileCommandLines(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "graphbig-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
	ldbc, err := gen.ByName("ldbc")
	if err != nil {
		t.Fatal(err)
	}
	g := ldbc.Generate(0.002, 42, 1)
	var v1 bytes.Buffer
	if err := loader.Write(&v1, g); err != nil {
		t.Fatal(err)
	}
	// What tab05 prints for a dataset the file stood in for.
	sum := gen.Summarize(g)
	loaded := fmt.Sprintf("ldbc  synthetic  %d  %d ", sum.V, sum.E)
	var path bytes.Buffer // a 3000-edge SNAP path, to be cut mid-stream
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&path, "%d %d\n", i, i+1)
	}
	zpath := gz(path.Bytes())
	big := file("big", []byte("18446744073709551615 9223372036854775807\n9223372036854775807 1\n1 18446744073709551615\n"))

	run := func(args ...string) (stdout, stderr string, exit int) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, bin, args...)
		var so, se bytes.Buffer
		cmd.Stdout, cmd.Stderr = &so, &se
		err := cmd.Run()
		if ctx.Err() != nil {
			t.Fatalf("graphbig-bench %v: still running after 60s", args)
		}
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			t.Fatalf("graphbig-bench %v: %v", args, err)
		}
		return so.String(), se.String(), cmd.ProcessState.ExitCode()
	}
	// squeeze collapses runs of blanks, so a table row can be matched
	// without knowing its column widths.
	squeeze := func(s string) string {
		lines := strings.Split(s, "\n")
		for i, l := range lines {
			lines[i] = strings.Join(strings.Fields(l), "  ")
		}
		return strings.Join(lines, "\n")
	}

	for _, tc := range []struct {
		name string
		args []string
		exit int
		want string // exit 0: part of a stdout line; otherwise: a prefix of stderr's first line
	}{
		{"empty file", []string{"-exp", "tab05", "-input", file("empty", nil)}, 1, "graphbig-bench: loader: no edges in SNAP input"},
		{"comments only", []string{"-exp", "tab05", "-input", file("comments", []byte("# a\n# b\n"))}, 1, "graphbig-bench: loader: no edges in SNAP input"},
		{"missing file", []string{"-exp", "tab05", "-input", filepath.Join(dir, "absent")}, 1, "graphbig-bench: open "},
		{"gzip header only", []string{"-exp", "tab05", "-input", file("cut0.gz", zpath[:6])}, 1, "graphbig-bench: loader: gzip: "},
		{"gzip cut mid-stream", []string{"-exp", "tab05", "-input", file("cut.gz", zpath[:len(zpath)/2])}, 1, "graphbig-bench: loader: line "},
		{"ID past uint64", []string{"-exp", "tab05", "-input", file("over", []byte("18446744073709551616 1\n"))}, 1, "graphbig-bench: loader: line 1: "},
		{"negative weight", []string{"-exp", "tab05", "-input", file("neg", []byte("1 2 -1\n"))}, 1, "graphbig-bench: loader: line 1: "},
		{"largest IDs", []string{"-exp", "tab05", "-input", big}, 0, "twitter  social  3  3 "},
		{"largest IDs viewed", []string{"-exp", "fig10", "-input", big}, 0, "BFS  thread-centric "},
		{"v1 file", []string{"-exp", "tab05", "-input", file("v1", v1.Bytes())}, 0, loaded},
		{"v1 file gzipped", []string{"-exp", "tab05", "-input", file("v1.gz", gz(v1.Bytes()))}, 0, loaded},
		{"in whole run", []string{"-input", file("empty2", nil)}, 1, "graphbig-bench: harness: "},
		{"partitions negative", []string{"-exp", "fig10", "-partitions", "-3", "-input", big}, 0, "BFS  thread-centric "},
		{"partitions past n", []string{"-exp", "fig10", "-partitions", "99", "-input", big}, 0, "BFS  thread-centric "},
		{"scale zero", []string{"-exp", "tab05", "-scale", "0"}, 0, "ldbc  synthetic  64 "},
		{"scale negative", []string{"-exp", "tab05", "-scale", "-1"}, 0, "ldbc  synthetic  64 "},
		{"scale NaN", []string{"-exp", "tab05", "-scale", "NaN"}, 0, "ldbc  synthetic  64 "},
		{"unknown order", []string{"-exp", "fig10", "-order", "nope", "-input", big}, 1, `graphbig-bench: harness: GPU BFS on ldbc: order: unknown strategy "nope"`},
		{"unknown experiment", []string{"-exp", "fig99"}, 1, `graphbig-bench: harness: unknown experiment "fig99"`},
		{"empty experiment in list", []string{"-exp", "tab05,", "-input", big}, 1, `graphbig-bench: harness: unknown experiment ""`},
		{"output into a missing directory", []string{"-exp", "fig04", "-o", filepath.Join(dir, "absent", "out.md")}, 1, "graphbig-bench: open "},
	} {
		stdout, stderr, exit := run(tc.args...)
		got, _, _ := strings.Cut(stderr, "\n")
		ok := strings.HasPrefix(got, tc.want)
		if exit == 0 {
			got = squeeze(stdout)
			ok = strings.Contains(got, tc.want)
		}
		if exit != tc.exit || !ok {
			t.Errorf("%s: exit %d, %q; want exit %d, %q…\nstderr: %s", tc.name, exit, got, tc.exit, tc.want, stderr)
		}
	}
}
