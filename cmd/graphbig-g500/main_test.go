package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestCommandLines runs the built binary on small R-MAT graphs and on flag
// values outside their range. A panic exits 2 and a hang trips the per-case
// timeout, so neither can pass.
func TestCommandLines(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "graphbig-g500")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(t *testing.T, args ...string) (stdout, stderr string, exit int) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, bin, args...)
		var so, se bytes.Buffer
		cmd.Stdout, cmd.Stderr = &so, &se
		err := cmd.Run()
		if ctx.Err() != nil {
			t.Fatalf("graphbig-g500 %v: still running after 30s", args)
		}
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			t.Fatalf("graphbig-g500 %v: %v", args, err)
		}
		return so.String(), se.String(), cmd.ProcessState.ExitCode()
	}
	small := []string{"-sscale", "7", "-ef", "4", "-roots", "3", "-seed", "5"}
	rootLine := regexp.MustCompile(`(?m)^root (\d+) +reached (\d+) +edges (\d+) `)

	t.Run("report", func(t *testing.T) {
		stdout, stderr, exit := run(t, small...)
		if exit != 0 {
			t.Fatalf("exit %d: %s", exit, stderr)
		}
		if !strings.HasPrefix(stdout, "graph: scale 7, 128 vertices, ") {
			t.Errorf("header: %q", stdout)
		}
		// Sampling skips an isolated vertex rather than trying its
		// neighbour, so up to -roots lines print; the summary counts them.
		n := len(rootLine.FindAllString(stdout, -1))
		if n < 1 || n > 3 {
			t.Errorf("%d root lines, want 1 to 3:\n%s", n, stdout)
		}
		summary := fmt.Sprintf(`(?m)^harmonic mean: \d+ TEPS, median: \d+ TEPS over %d roots$`, n)
		if !regexp.MustCompile(summary).MatchString(stdout) {
			t.Errorf("no summary line over %d roots:\n%s", n, stdout)
		}
	})
	t.Run("roots and reach do not depend on workers", func(t *testing.T) {
		var reports []string
		for _, w := range []string{"1", "3"} {
			stdout, stderr, exit := run(t, append([]string{"-workers", w}, small...)...)
			if exit != 0 {
				t.Fatalf("-workers %s: exit %d: %s", w, exit, stderr)
			}
			var b strings.Builder
			for _, m := range rootLine.FindAllStringSubmatch(stdout, -1) {
				b.WriteString(strings.Join(m[1:], " ") + "\n")
			}
			reports = append(reports, b.String())
		}
		if reports[0] == "" || reports[0] != reports[1] {
			t.Errorf("root/reached/edges differ:\n-workers 1:\n%s-workers 3:\n%s", reports[0], reports[1])
		}
	})
	for _, c := range []struct {
		name string
		args []string
		exit int
		want string // prefix of stderr's first line
	}{
		{"scale too small", []string{"-sscale", "2"}, 1, "graphbig-g500: g500: scale 2 too small"},
		{"no roots", []string{"-sscale", "6", "-roots", "0"}, 1, "graphbig-g500: g500: 0 roots, want at least 1"},
		{"negative roots", []string{"-sscale", "6", "-roots", "-4"}, 1, "graphbig-g500: g500: -4 roots, want at least 1"},
		{"malformed flag value", []string{"-roots", "many"}, 2, `invalid value "many" for flag -roots`},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, stderr, exit := run(t, c.args...)
			first, _, _ := strings.Cut(stderr, "\n")
			if exit != c.exit || !strings.HasPrefix(first, c.want) {
				t.Fatalf("exit %d, stderr %q; want exit %d and prefix %q", exit, first, c.exit, c.want)
			}
		})
	}
}
