package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/loader"
)

// TestHostileCommandLines runs the built binary on input a user can get
// wrong — empty, truncated and oddly formatted files, the largest IDs,
// flag values outside their range — and holds every case to an exit
// status plus either the first line of stderr or the result line of
// stdout. A panic exits 2 and a hang trips the per-case timeout, so
// neither can pass.
func TestHostileCommandLines(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "graphbig")
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

	run := func(args ...string) (stdout, stderr string, exit int) {
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
	result := regexp.MustCompile(`(?m)^\w+: visited=\d+ checksum=\S+`)
	stdout, stderr, exit := run(small...)
	ref := result.FindString(stdout)
	if exit != 0 || ref == "" {
		t.Fatalf("reference run: exit %d\n%s%s", exit, stdout, stderr)
	}

	for _, tc := range []struct {
		name string
		args []string
		exit int
		want string // exit 0: the result line; otherwise: a prefix of stderr's first line
	}{
		{"empty file", []string{"-input", file("empty", nil)}, 1, "graphbig: loader: no edges in SNAP input"},
		{"comments only", []string{"-input", file("comments", []byte("# a\n# b\n"))}, 1, "graphbig: loader: no edges in SNAP input"},
		{"missing file", []string{"-input", filepath.Join(dir, "absent")}, 1, "graphbig: open "},
		{"gzip header only", []string{"-input", file("cut0.gz", zpath[:6])}, 1, "graphbig: loader: gzip: "},
		{"gzip cut mid-stream", []string{"-input", file("cut.gz", zpath[:len(zpath)/2])}, 1, "graphbig: loader: line "},
		{"gzip cut inside a line", []string{"-input", file("frag.gz", zfrag)}, 1, fmt.Sprintf("graphbig: loader: line %d: unexpected EOF", fragLine)},
		{"largest IDs", []string{"-input", file("big", []byte(
			"18446744073709551615 9223372036854775807\n9223372036854775807 1\n1 18446744073709551615\n"))}, 0, "BFS: visited=3 checksum=3"},
		{"ID past uint64", []string{"-input", file("over", []byte("18446744073709551616 1\n"))}, 1, "graphbig: loader: line 1: "},
		{"v1 file", []string{"-input", file("v1", v1.Bytes())}, 0, ref},
		{"v1 file gzipped", []string{"-input", file("v1.gz", gz(v1.Bytes()))}, 0, ref},
		{"delta NaN", append([]string{"-workload", "SPathDelta", "-delta", "NaN"}, small...), 1, "graphbig: workloads: SPathDelta: delta NaN "},
		{"delta negative", append([]string{"-workload", "SPathDelta", "-delta", "-1"}, small...), 1, "graphbig: workloads: SPathDelta: delta -1 "},
		{"delta +Inf", append([]string{"-workload", "SPathDelta", "-delta", "+Inf"}, small...), 1, "graphbig: workloads: SPathDelta: delta +Inf "},
		{"delta 1e-300", append([]string{"-workload", "SPathDelta", "-delta", "1e-300"}, small...), 1, "graphbig: workloads: SPathDelta: delta 1e-300 "},
		{"partitions negative", append([]string{"-partitions", "-3"}, small...), 0, ref},
		{"scale zero", []string{"-scale", "0"}, 0, "BFS: visited=64 "},
		{"scale negative", []string{"-scale", "-1"}, 0, "BFS: visited=64 "},
		{"unknown dataset", []string{"-dataset", "nope"}, 1, `graphbig: gen: unknown dataset "nope"`},
		{"unknown order", []string{"-order", "nope"}, 1, `graphbig: order: unknown strategy "nope"`},
		{"unknown workload", []string{"-workload", "nope"}, 1, `graphbig: core: unknown workload "nope"`},
	} {
		stdout, stderr, exit := run(tc.args...)
		got, _, _ := strings.Cut(stderr, "\n")
		if exit == 0 {
			got = result.FindString(stdout)
		}
		if exit != tc.exit || !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s: exit %d, %q; want exit %d, %q…\nstderr: %s", tc.name, exit, got, tc.exit, tc.want, stderr)
		}
	}
}
