package analysis

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader parses and type-checks packages without any network access: import
// paths are resolved by the local go command (`go list`), and every package
// — standard library included — is type-checked from source in dependency
// order. This is the same strategy as go/internal/srcimporter and costs a
// few seconds for the std closure, which is acceptable for a vet tool.
type Loader struct {
	// ModuleRoot is the directory containing go.mod; `go list` runs there.
	ModuleRoot string
	// TestdataRoot, when set, resolves import paths to fixture directories
	// (TestdataRoot/<import path>) before consulting `go list`, mirroring
	// the x/tools analysistest GOPATH-style testdata/src layout.
	TestdataRoot string

	fset   *token.FileSet
	pkgs   map[string]*types.Package // fully checked, by import path
	loaded map[string]*Package       // parsed+checked result, by import path
	meta   map[string]*listedPkg     // `go list` results, by import path
}

type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
}

// NewLoader returns a loader rooted at the enclosing module of dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	return &Loader{
		ModuleRoot: root,
		fset:       token.NewFileSet(),
		pkgs:       map[string]*types.Package{},
		loaded:     map[string]*Package{},
		meta:       map[string]*listedPkg{},
	}, nil
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// goList runs `go list -deps -json` for patterns and records the results
// (dependency order) in l.meta, returning the listed import paths in order.
func (l *Loader) goList(patterns ...string) ([]string, error) {
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Imports,Standard"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModuleRoot
	// Pure-Go file lists: cgo-free std variants type-check from source.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var order []string
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		if _, ok := l.meta[p.ImportPath]; !ok {
			l.meta[p.ImportPath] = &p
		}
		order = append(order, p.ImportPath)
	}
	return order, nil
}

// Load lists patterns (e.g. "./..."), type-checks the full dependency
// closure, and returns the non-standard-library packages in a stable
// (import path) order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	order, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var res []*Package
	seen := map[string]bool{}
	for _, path := range order {
		pkg, err := l.checkListed(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil && !l.meta[path].Standard && !seen[path] {
			seen[path] = true
			res = append(res, pkg)
		}
	}
	sort.Slice(res, func(i, j int) bool { return res[i].PkgPath < res[j].PkgPath })
	return res, nil
}

// checkListed type-checks one `go list`-ed package (deps must already be
// checked; Load iterates in dependency order, and Import falls back to an
// on-demand go list for anything missed). Returns nil for "unsafe" and
// for standard-library packages, which are served from the process-wide
// cache without keeping syntax.
func (l *Loader) checkListed(path string) (*Package, error) {
	if path == "unsafe" {
		l.pkgs[path] = types.Unsafe
		return nil, nil
	}
	if pkg, done := l.loaded[path]; done {
		return pkg, nil
	}
	if _, done := l.pkgs[path]; done {
		return nil, nil // checked as a bare types.Package (no syntax kept)
	}
	m, ok := l.meta[path]
	if !ok {
		return nil, fmt.Errorf("analysis: package %s not listed", path)
	}
	if m.Standard {
		tpkg, err := stdPackage(path, l.meta)
		if err != nil {
			return nil, err
		}
		l.pkgs[path] = tpkg
		return nil, nil
	}
	files := make([]string, len(m.GoFiles))
	for i, f := range m.GoFiles {
		files[i] = filepath.Join(m.Dir, f)
	}
	return l.check(path, m.Dir, files)
}

// stdCache is the process-wide store of type-checked standard-library
// packages. The std closure costs a few seconds to check from source and
// is identical for every Loader (same GOROOT, same CGO_ENABLED=0 file
// set), so re-checking it per RunAnalyzers invocation — one loader per
// Vet call, per analyzer test, per fixture — wasted almost all of every
// run. Cached std packages keep no syntax; their objects' positions refer
// to the cache's private FileSet, which is fine because analyzers only
// ever report positions inside module or fixture files.
var stdCache = struct {
	mu     sync.Mutex
	fset   *token.FileSet
	pkgs   map[string]*types.Package
	checks int // type-check invocations, observable by tests/benchmarks
}{
	fset: token.NewFileSet(),
	pkgs: map[string]*types.Package{},
}

// StdTypeChecks reports how many standard-library packages have been
// type-checked process-wide. The loader benchmark and cache regression
// test use it to assert reuse (the count must not grow on a warm load).
func StdTypeChecks() int {
	stdCache.mu.Lock()
	defer stdCache.mu.Unlock()
	return stdCache.checks
}

// stdPackage returns the cached std package for path, checking it (and
// its std dependencies, dependency-first) on a cache miss. meta supplies
// `go list` results; the caller's listing always covers the closure it
// asks for, so no fallback listing is needed.
func stdPackage(path string, meta map[string]*listedPkg) (*types.Package, error) {
	stdCache.mu.Lock()
	defer stdCache.mu.Unlock()
	return stdPackageLocked(path, meta)
}

func stdPackageLocked(path string, meta map[string]*listedPkg) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := stdCache.pkgs[path]; ok {
		return p, nil
	}
	m, ok := meta[path]
	if !ok {
		return nil, fmt.Errorf("analysis: std package %s not listed", path)
	}
	for _, imp := range m.Imports {
		if _, err := stdPackageLocked(imp, meta); err != nil {
			return nil, err
		}
	}
	var files []*ast.File
	for _, f := range m.GoFiles {
		af, err := parser.ParseFile(stdCache.fset, filepath.Join(m.Dir, f), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	conf := types.Config{
		Importer: stdCacheImporter{},
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, stdCache.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking std %s: %w", path, err)
	}
	stdCache.pkgs[path] = tpkg
	stdCache.checks++
	return tpkg, nil
}

// stdCacheImporter serves imports during a std check from the cache. The
// mutex is already held by stdPackageLocked and dependencies are checked
// first, so this is a pure map read.
type stdCacheImporter struct{}

func (stdCacheImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := stdCache.pkgs[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("analysis: std import %q not yet checked", path)
}

// LoadFixture parses and type-checks the fixture package at
// TestdataRoot/<pkgpath>, resolving its imports against fixture siblings,
// the enclosing module, and the standard library.
func (l *Loader) LoadFixture(pkgpath string) (*Package, error) {
	if l.TestdataRoot == "" {
		return nil, fmt.Errorf("analysis: loader has no TestdataRoot")
	}
	if pkg, ok := l.loaded[pkgpath]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.TestdataRoot, pkgpath)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		// The go tool's ignore conventions: editors and vendoring drop
		// "_"/"." prefixed files into testdata trees, and fixtures may be
		// build-tag-gated (e.g. arch-specific positives).
		if strings.HasPrefix(n, "_") || strings.HasPrefix(n, ".") {
			continue
		}
		path := filepath.Join(dir, n)
		ok, err := buildTagsSatisfied(path)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		files = append(files, path)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return l.check(pkgpath, dir, files)
}

// buildTagsSatisfied reports whether the file's build constraints
// (`//go:build` and legacy `// +build` lines before the package clause)
// hold for the current GOOS/GOARCH with the gc toolchain. Release tags
// (go1.x) are treated as satisfied — fixtures gate on platforms and
// custom tags, not on future Go versions.
func buildTagsSatisfied(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "package ") {
			break
		}
		var expr constraint.Expr
		switch {
		case constraint.IsGoBuild(line):
			expr, err = constraint.Parse(line)
		case constraint.IsPlusBuild(line):
			expr, err = constraint.Parse(line)
		default:
			continue
		}
		if err != nil {
			return false, fmt.Errorf("analysis: %s: bad build constraint: %v", path, err)
		}
		if !expr.Eval(buildTagMatches) {
			return false, nil
		}
	}
	return true, sc.Err()
}

func buildTagMatches(tag string) bool {
	return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" ||
		strings.HasPrefix(tag, "go1")
}

// check parses files and type-checks them as package path.
func (l *Loader) check(path, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	l.pkgs[path] = tpkg
	pkg := &Package{
		PkgPath:   path,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	l.loaded[path] = pkg
	return pkg, nil
}

// Import implements types.Importer. It serves already-checked packages and
// otherwise resolves path through fixtures or `go list` on demand.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	// Fixture sibling?
	if l.TestdataRoot != "" {
		if st, err := os.Stat(filepath.Join(l.TestdataRoot, path)); err == nil && st.IsDir() {
			if _, err := l.LoadFixture(path); err != nil {
				return nil, err
			}
			return l.pkgs[path], nil
		}
	}
	// Module or standard-library package: list its closure and check the
	// parts not seen yet, dependency-first.
	order, err := l.goList(path)
	if err != nil {
		return nil, err
	}
	for _, p := range order {
		if _, err := l.checkListed(p); err != nil {
			return nil, err
		}
	}
	pkg, ok := l.pkgs[path]
	if !ok {
		return nil, fmt.Errorf("analysis: import %q did not resolve", path)
	}
	return pkg, nil
}
