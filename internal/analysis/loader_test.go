package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestLoadModulePackage type-checks a real module package from source and
// verifies the Pass sees resolved type information.
func TestLoadModulePackage(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load(./internal/stats) = %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if !strings.HasSuffix(pkg.PkgPath, "internal/stats") {
		t.Errorf("PkgPath = %q, want suffix internal/stats", pkg.PkgPath)
	}
	if pkg.Types == nil || pkg.Types.Scope().Len() == 0 {
		t.Fatal("package has no type information")
	}
	if pkg.TypesInfo == nil || len(pkg.TypesInfo.Defs) == 0 {
		t.Fatal("package has no defs recorded")
	}
	if len(pkg.Files) == 0 {
		t.Fatal("package has no parsed files")
	}
}

// TestLoadDepsClosure verifies ./... loads every module package with its
// imports resolved in dependency order.
func TestLoadDepsClosure(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("Load(./...) = %d packages, want at least 20", len(pkgs))
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		if seen[p.PkgPath] {
			t.Errorf("package %s listed twice", p.PkgPath)
		}
		seen[p.PkgPath] = true
	}
	for _, want := range []string{"internal/engine", "internal/workloads", "internal/property"} {
		found := false
		for _, p := range pkgs {
			if strings.HasSuffix(p.PkgPath, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Load(./...) missing %s", want)
		}
	}
}

// TestStdExportsReused: once one loader has located the export data of a
// package's std imports, a second loader reads them from the process-wide
// memo and runs no further `go list -export`.
func TestStdExportsReused(t *testing.T) {
	warm, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := warm.Load("./internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	var std []string
	for _, imp := range pkgs[0].Types.Imports() {
		std = append(std, imp.Path())
		if _, ok := exportFile(imp.Path()); !ok {
			t.Errorf("std import %s has no memoized export data", imp.Path())
		}
	}
	if len(std) == 0 {
		t.Fatal("internal/stats imports no std package; test proves nothing")
	}
	// A go command run from a directory that does not exist fails, so
	// this passes only if every path is served from the memo.
	if err := listExports(filepath.Join(t.TempDir(), "absent"), std); err != nil {
		t.Fatalf("listExports re-ran go list for met packages: %v", err)
	}
	cold, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Load("./internal/stats"); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLoaderWarm measures a full loader construction + package load
// once the process has located the standard library's export data — the
// cost every RunAnalyzers call after the first pays.
func BenchmarkLoaderWarm(b *testing.B) {
	l, err := NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := l.Load("./internal/stats"); err != nil {
		b.Fatal(err) // locates the std export data
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.Load("./internal/stats"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFixtureDiscoveryHonorsBuildTags: files gated off by build tags and
// "_"/"." prefixed files must not be parsed — the gated file here would
// fail type-checking if included.
func TestFixtureDiscoveryHonorsBuildTags(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "example.com", "tagged")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("good.go", "package tagged\n\nfunc Good() int { return 1 }\n")
	write("gated.go", "//go:build fixturedisabledtag\n\npackage tagged\n\nfunc Bad() { undeclaredIdentifier() }\n")
	write("legacy_gated.go", "// +build fixturedisabledtag\n\npackage tagged\n\nfunc AlsoBad() { undeclaredIdentifier() }\n")
	write("_vendored.go", "package tagged\n\nfunc Vendored() { undeclaredIdentifier() }\n")
	write("platform.go", "//go:build "+runtime.GOOS+"\n\npackage tagged\n\nfunc Platform() int { return 2 }\n")

	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	l.TestdataRoot = root
	pkg, err := l.LoadFixture("example.com/tagged")
	if err != nil {
		t.Fatalf("LoadFixture with gated files: %v", err)
	}
	if len(pkg.Files) != 2 {
		t.Fatalf("loaded %d files, want 2 (good.go and the matching platform file)", len(pkg.Files))
	}
	if pkg.Types.Scope().Lookup("Good") == nil || pkg.Types.Scope().Lookup("Platform") == nil {
		t.Error("expected declarations missing from the fixture package")
	}
	if pkg.Types.Scope().Lookup("Bad") != nil {
		t.Error("build-tag-gated file was loaded")
	}
}

// TestRunAnalyzersSortsDiagnostics verifies diagnostics come back in
// positional order regardless of analyzer-internal map iteration.
func TestRunAnalyzersSortsDiagnostics(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	reportAll := &Analyzer{
		Name: "reportall",
		Doc:  "report every function declaration (test helper)",
		Run: func(pass *Pass) error {
			// Walk files in reverse to prove Report order is normalized.
			for i := len(pass.Files) - 1; i >= 0; i-- {
				ast.Inspect(pass.Files[i], func(n ast.Node) bool {
					if fd, ok := n.(*ast.FuncDecl); ok {
						pass.Report(fd.Pos(), "func %s", fd.Name.Name)
					}
					return true
				})
			}
			return nil
		},
	}
	diags, err := RunAnalyzers(pkgs[0], []*Analyzer{reportAll})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("no diagnostics from reportall")
	}
	for i := 1; i < len(diags); i++ {
		if diags[i].Pos < diags[i-1].Pos {
			t.Fatalf("diagnostics out of order at %d", i)
		}
	}
}
