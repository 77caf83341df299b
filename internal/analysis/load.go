package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// TestFiles are the package's in-package _test.go files, type-checked
	// together with Files under the same Info (external package foo_test
	// files are not loaded). The analyzers cover production code only; the
	// suppression audit reads the directives in these too.
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath  string
	Dir         string
	Export      string
	GoFiles     []string
	TestGoFiles []string
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go %s: %v\n%s",
			strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportMap builds importPath -> export-data file for the patterns and
// every dependency, compiling as needed (`go list -export` populates the
// build cache; it needs no network). -test pulls in the dependencies of
// in-package test files (testing and friends) so _test.go files
// type-check; the test-variant entries themselves carry bracketed import
// paths and are never looked up.
func exportMap(dir string, patterns []string) (map[string]string, error) {
	args := append([]string{"list", "-export", "-deps", "-test",
		"-json=ImportPath,Export"}, patterns...)
	pkgs, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	m := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			m[p.ImportPath] = p.Export
		}
	}
	return m, nil
}

// exportImporter returns a types.Importer that reads gc export data from
// the given path map.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// parseFiles parses the named files (relative names resolve against dir).
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		fn := name
		if !filepath.IsAbs(fn) {
			fn = filepath.Join(dir, name)
		}
		af, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %v", fn, err)
		}
		files = append(files, af)
	}
	return files, nil
}

// typeCheck parses the production and in-package test files and
// type-checks them together as import path — one types.Info spans both,
// exactly like the compiler's test variant — using exports to resolve
// imports.
func typeCheck(fset *token.FileSet, path, dir string, goFiles, testGoFiles []string,
	exports map[string]string) (*Package, error) {
	files, err := parseFiles(fset, dir, goFiles)
	if err != nil {
		return nil, err
	}
	testFiles, err := parseFiles(fset, dir, testGoFiles)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: exportImporter(fset, exports)}
	all := make([]*ast.File, 0, len(files)+len(testFiles))
	all = append(all, files...)
	all = append(all, testFiles...)
	tpkg, err := conf.Check(path, fset, all, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	return &Package{
		Path: path, Dir: dir, Fset: fset,
		Files: files, TestFiles: testFiles, Types: tpkg, Info: info,
	}, nil
}

// Load type-checks the packages matched by the patterns (relative to dir,
// or the current directory when dir is empty) and returns them ready for
// analysis. Production files land in Package.Files; in-package _test.go
// files land in Package.TestFiles (the analyzers cover production code
// only — test files may deliberately exercise forbidden constructs — but
// the suppression audit reads their directives too).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	exports, err := exportMap(dir, patterns)
	if err != nil {
		return nil, err
	}
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles,TestGoFiles"}, patterns...)
	targets, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	seen := make(map[string]bool, len(targets))
	out := make([]*Package, 0, len(targets))
	for _, t := range targets {
		if seen[t.ImportPath] || len(t.GoFiles) == 0 {
			continue
		}
		seen[t.ImportPath] = true
		pkg, err := typeCheck(fset, t.ImportPath, t.Dir, t.GoFiles, t.TestGoFiles, exports)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}
