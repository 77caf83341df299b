// Package analysis is cawslint's static-analysis framework and analyzer
// suite. It encodes the simulator invariants that PRs 1–2 proved
// dynamically (deterministic replay, generation-keyed cache discipline,
// total-order comparators, opt/ref equivalence) as compile-time checks
// that hold for every future change, not just the paths the fuzz seeds
// reach.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic and analysistest-style fixtures) but is
// built entirely on the standard library — go/parser, go/types and the
// gc export-data importer fed by `go list -export` — because this module
// carries no external dependencies. See DESIGN.md §8 for the invariant
// each analyzer encodes and how to suppress a false positive.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Analyzer is one static check. Run inspects a fully type-checked
// package via the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow suppression directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	// TestFiles are the package's in-package _test.go files, sharing Info
	// with Files. An analyzer that polices test discipline walks these; none
	// of the suite's does at present.
	TestFiles []*ast.File
	// Path is the package import path (fixtures may declare a synthetic
	// one to exercise path-scoped analyzers).
	Path string
	Pkg  *types.Package
	Info *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// AnalyzerTiming is one analyzer's cumulative wall time across every
// analyzed package, for cawslint -timing (slow analyzers must be visible
// in CI logs, not discovered by bisecting the lint job).
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunAnalyzers applies every analyzer to every package, applies the
// //lint:allow suppression directives (see suppress.go), and returns the
// surviving diagnostics sorted by position then analyzer name, with each
// analyzer's wall time in suite order.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTiming) {
	var diags []Diagnostic
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	timings := make([]AnalyzerTiming, len(analyzers))
	for i, a := range analyzers {
		timings[i].Name = a.Name
	}
	for _, pkg := range pkgs {
		var pkgDiags []Diagnostic
		for i, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				TestFiles: pkg.TestFiles,
				Path:      pkg.Path,
				Pkg:       pkg.Types,
				Info:      pkg.Info,
				diags:     &pkgDiags,
			}
			start := time.Now()
			a.Run(pass)
			timings[i].Elapsed += time.Since(start)
		}
		diags = append(diags, applySuppressions(pkg, pkgDiags, known)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, timings
}

// ---------------------------------------------------------------- helpers

// inScope reports whether path matches any of the scope package paths.
func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s {
			return true
		}
	}
	return false
}

// namedType returns the named type of t, unwrapping one pointer level,
// or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgPath.typeName.
func isNamed(t types.Type, pkgPath, typeName string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == typeName
}

// calleeFunc resolves a call expression to the *types.Func it invokes,
// or nil (builtins, function-typed variables).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleeName returns the bare name a call is spelled with (the selector
// or identifier), or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// inspectStack walks root like ast.Inspect but hands f the stack of
// enclosing nodes (outermost first, not including n itself).
func inspectStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := f(n, stack)
		stack = append(stack, n)
		if !keep {
			// ast.Inspect will not descend; it also will not deliver the
			// matching nil, so pop now.
			stack = stack[:len(stack)-1]
		}
		return keep
	})
}
