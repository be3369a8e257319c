package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/loader"
	"github.com/graphbig/graphbig-go/internal/property"
)

// TestCommandLines runs the built binary and holds each case to an exit
// status, a prefix of stdout's first line (or stderr's, on failure) and,
// where a file is written, to the bytes loader.Write gives for the same
// generator call in-process. A panic exits 2 and a hang trips the per-case
// timeout, so neither can pass.
func TestCommandLines(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "graphbig-gen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(t *testing.T, cwd string, args ...string) (stdout, stderr string, exit int) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Dir = cwd
		var so, se bytes.Buffer
		cmd.Stdout, cmd.Stderr = &so, &se
		err := cmd.Run()
		if ctx.Err() != nil {
			t.Fatalf("graphbig-gen %v: still running after 30s", args)
		}
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			t.Fatalf("graphbig-gen %v: %v", args, err)
		}
		return so.String(), se.String(), cmd.ProcessState.ExitCode()
	}
	dataset := func(name string, scale float64, seed int64) func() *property.Graph {
		return func() *property.Graph {
			d, err := gen.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return d.Generate(scale, seed, 0)
		}
	}

	cases := []struct {
		name string
		args []string
		exit int
		want string // a prefix of stdout's first line, or of stderr's on failure
		// file and graph, when set: the file the run writes (relative to
		// its working directory) must hold exactly loader.Write(graph()).
		file  string
		graph func() *property.Graph
	}{
		{"twitter", []string{"-dataset", "twitter", "-scale", "0.00005", "-seed", "3", "-o", "t.el"}, 0,
			"twitter: 550 vertices, ", "t.el", dataset("twitter", 0.00005, 3)},
		{"knowledge", []string{"-dataset", "knowledge", "-scale", "0.002", "-seed", "3", "-o", "k.el"}, 0,
			"knowledge: 308 vertices, ", "k.el", dataset("knowledge", 0.002, 3)},
		{"watson-gene", []string{"-dataset", "watson-gene", "-scale", "0.0002", "-seed", "3", "-o", "w.el"}, 0,
			"watson-gene: 400 vertices, ", "w.el", dataset("watson-gene", 0.0002, 3)},
		{"ca-road", []string{"-dataset", "ca-road", "-scale", "0.0002", "-seed", "3", "-o", "r.el"}, 0,
			"ca-road: 380 vertices, ", "r.el", dataset("ca-road", 0.0002, 3)},
		{"ldbc", []string{"-dataset", "ldbc", "-scale", "0.0003", "-seed", "3", "-o", "l.el"}, 0,
			"ldbc: 300 vertices, ", "l.el", dataset("ldbc", 0.0003, 3)},
		{"other seed", []string{"-dataset", "ldbc", "-scale", "0.0003", "-seed", "4", "-o", "l4.el"}, 0,
			"ldbc: 300 vertices, ", "l4.el", dataset("ldbc", 0.0003, 4)},
		{"default output path", []string{"-dataset", "ldbc", "-scale", "0.0003", "-seed", "3"}, 0,
			"ldbc: 300 vertices, ", "ldbc.el", dataset("ldbc", 0.0003, 3)},
		{"scale zero keeps the 64-vertex floor", []string{"-scale", "0", "-o", "z.el"}, 0,
			"ldbc: 64 vertices, ", "z.el", dataset("ldbc", 0, 42)},
		{"scale NaN", []string{"-scale", "NaN"}, 1, "graphbig-gen: gen: scale NaN is not a finite number", "", nil},
		{"scale -Inf", []string{"-scale", "-Inf"}, 1, "graphbig-gen: gen: scale -Inf is not a finite number", "", nil},
		{"scale 1e300", []string{"-scale", "1e300"}, 1, "graphbig-gen: gen: scale 1e+300 gives ldbc ", "", nil},
		{"list", []string{"-list"}, 0, "twitter      social       paper scale: 11000000 vertices", "", nil},
		{"unknown dataset", []string{"-dataset", "nope"}, 1, `graphbig-gen: gen: unknown dataset "nope"`, "", nil},
		{"retired rmat dataset", []string{"-dataset", "rmat"}, 1, `graphbig-gen: gen: unknown dataset "rmat"`, "", nil},
		{"retired rmat-scale flag", []string{"-rmat-scale", "7"}, 2, "flag provided but not defined: -rmat-scale", "", nil},
		{"output directory missing", []string{"-scale", "0", "-o", filepath.Join("absent", "g.el")}, 1, "graphbig-gen: open ", "", nil},
		{"malformed flag value", []string{"-scale", "tiny"}, 2, `invalid value "tiny" for flag -scale`, "", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cwd := t.TempDir()
			stdout, stderr, exit := run(t, cwd, c.args...)
			out := stdout
			if c.exit != 0 {
				out = stderr
			}
			first, _, _ := strings.Cut(out, "\n")
			if exit != c.exit || !strings.HasPrefix(first, c.want) {
				t.Fatalf("exit %d, first line %q; want exit %d and prefix %q\nstderr: %s", exit, first, c.exit, c.want, stderr)
			}
			if c.file == "" {
				return
			}
			got, err := os.ReadFile(filepath.Join(cwd, c.file))
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := loader.Write(&want, c.graph()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s holds %d bytes that differ from the in-process generator's %d", c.file, len(got), want.Len())
			}
		})
	}

	t.Run("list names the catalog", func(t *testing.T) {
		stdout, _, exit := run(t, dir, "-list")
		if exit != 0 {
			t.Fatalf("exit %d", exit)
		}
		lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
		if len(lines) != len(gen.Catalog) {
			t.Fatalf("-list prints %d lines, want one per catalog dataset (%d):\n%s", len(lines), len(gen.Catalog), stdout)
		}
		for i, d := range gen.Catalog {
			if !strings.HasPrefix(lines[i], d.Name+" ") {
				t.Errorf("-list line %d is %q, want %s", i, lines[i], d.Name)
			}
		}
	})
	t.Run("stats prints the degree histogram", func(t *testing.T) {
		stdout, _, exit := run(t, t.TempDir(), "-scale", "0", "-stats")
		if exit != 0 || !strings.Contains(stdout, "\ndegree CV ") || !strings.Contains(stdout, "\ndegree histogram:\n") {
			t.Fatalf("exit %d:\n%s", exit, stdout)
		}
	})
}
