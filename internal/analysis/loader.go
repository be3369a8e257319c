package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
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
// paths are resolved by the local go command (`go list`), module packages
// and fixtures are type-checked from source in dependency order, and
// standard-library imports are read from the export data the go command
// builds for them (`go list -export`), as the compiler itself reads them.
type Loader struct {
	// ModuleRoot is the directory containing go.mod; `go list` runs there.
	ModuleRoot string
	// TestdataRoot, when set, resolves import paths to fixture directories
	// (TestdataRoot/<import path>) before consulting `go list`, mirroring
	// the x/tools analysistest GOPATH-style testdata/src layout.
	TestdataRoot string

	fset   *token.FileSet
	std    types.Importer            // standard library, from export data
	pkgs   map[string]*types.Package // fully checked, by import path
	loaded map[string]*Package       // parsed+checked result, by import path
	meta   map[string]*listedPkg     // `go list` results, by import path
}

type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// NewLoader returns a loader rooted at the enclosing module of dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		fset:       fset,
		std:        importer.ForCompiler(fset, "gc", lookupExport),
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

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) (*bytes.Buffer, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	return &out, nil
}

// goList runs `go list -deps -json` for patterns and records the results
// in l.meta, returning the listed import paths in dependency order. The
// export data of the standard-library packages listed is located as well.
func (l *Loader) goList(patterns ...string) ([]string, error) {
	out, err := goCmd(l.ModuleRoot, append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var order, std []string
	dec := json.NewDecoder(out)
	for dec.More() {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		if _, ok := l.meta[p.ImportPath]; !ok {
			l.meta[p.ImportPath] = &p
		}
		order = append(order, p.ImportPath)
		if p.Standard {
			std = append(std, p.ImportPath)
		}
	}
	return order, listExports(l.ModuleRoot, std)
}

// stdExports maps every standard-library import path this process has met
// to its export data file in the go build cache. It is process-wide
// because every Loader (one per vet run, analyzer test and fixture) asks
// for the same packages, and each `go list -export` costs a go command.
var stdExports = struct {
	sync.Mutex
	files map[string]string
}{files: map[string]string{}}

// listExports locates, with one `go list -export`, the export data of the
// std packages in paths that the process has not met yet.
func listExports(dir string, paths []string) error {
	stdExports.Lock()
	defer stdExports.Unlock()
	var miss []string
	for _, p := range paths {
		if _, ok := stdExports.files[p]; !ok && p != "unsafe" {
			miss = append(miss, p)
		}
	}
	if len(miss) == 0 {
		return nil
	}
	out, err := goCmd(dir, append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, miss...)...)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		path, file, _ := strings.Cut(line, " ")
		stdExports.files[path] = file
	}
	return nil
}

// exportFile reports the export data file of a std package, and whether
// the process has met the package.
func exportFile(path string) (string, bool) {
	stdExports.Lock()
	defer stdExports.Unlock()
	file, ok := stdExports.files[path]
	return file, ok
}

// lookupExport opens the export data of a std package for go/importer.
func lookupExport(path string) (io.ReadCloser, error) {
	file, _ := exportFile(path)
	if file == "" {
		return nil, fmt.Errorf("analysis: no export data for %s", path)
	}
	return os.Open(file)
}

// Load lists patterns (e.g. "./..."), type-checks the module packages of
// the dependency closure from source, and returns them in import path
// order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	order, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var res []*Package
	for _, path := range order {
		if l.meta[path].Standard {
			continue
		}
		pkg, err := l.checkListed(path)
		if err != nil {
			return nil, err
		}
		res = append(res, pkg)
	}
	sort.Slice(res, func(i, j int) bool { return res[i].PkgPath < res[j].PkgPath })
	return res, nil
}

// checkListed type-checks one `go list`-ed module package. Its module
// dependencies must already be checked: Load and Import iterate in
// dependency order.
func (l *Loader) checkListed(path string) (*Package, error) {
	if pkg, done := l.loaded[path]; done {
		return pkg, nil
	}
	m := l.meta[path]
	files := make([]string, len(m.GoFiles))
	for i, f := range m.GoFiles {
		files[i] = filepath.Join(m.Dir, f)
	}
	return l.check(path, m.Dir, files)
}

// LoadFixture parses and type-checks the fixture package at
// TestdataRoot/<pkgpath>, resolving its imports against fixture siblings,
// the enclosing module, and the standard library. Its files are the ones
// go/build selects: build constraints hold, no _test.go, no "_" or "."
// prefix.
func (l *Loader) LoadFixture(pkgpath string) (*Package, error) {
	if l.TestdataRoot == "" {
		return nil, fmt.Errorf("analysis: loader has no TestdataRoot")
	}
	if pkg, ok := l.loaded[pkgpath]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.TestdataRoot, pkgpath)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: fixture %s: %w", pkgpath, err)
	}
	files := make([]string, len(bp.GoFiles))
	for i, f := range bp.GoFiles {
		files[i] = filepath.Join(dir, f)
	}
	return l.check(pkgpath, dir, files)
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
// otherwise resolves path as a fixture sibling, a std package whose export
// data is located, or through `go list` on demand.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.TestdataRoot != "" {
		if st, err := os.Stat(filepath.Join(l.TestdataRoot, path)); err == nil && st.IsDir() {
			if _, err := l.LoadFixture(path); err != nil {
				return nil, err
			}
			return l.pkgs[path], nil
		}
	}
	if _, met := exportFile(path); !met && path != "unsafe" {
		// List the closure and check its module packages, dependency-first.
		order, err := l.goList(path)
		if err != nil {
			return nil, err
		}
		for _, p := range order {
			if !l.meta[p].Standard {
				if _, err := l.checkListed(p); err != nil {
					return nil, err
				}
			}
		}
		if m := l.meta[path]; m == nil || !m.Standard {
			if p, ok := l.pkgs[path]; ok {
				return p, nil
			}
			return nil, fmt.Errorf("analysis: import %q did not resolve", path)
		}
	}
	p, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}
