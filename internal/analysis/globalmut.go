package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// GlobalMutConfig names the scheduling packages whose package-level
// mutable state is guarded and the process-global mode setters whose
// callers are policed.
type GlobalMutConfig struct {
	// Scope are the packages in which any write to a package-level
	// variable (assignment, ++/--, delete, or a mutating method call on a
	// package-level atomic/sync value) must come from package main, a
	// test file, or a site carrying an explained //lint:allow globalmut
	// (an annotated setter or an internally synchronized cache).
	Scope []string
	// Toggles are the process-global mode setters, as
	// "importpath.FuncName". A test function that calls one must restore
	// it via defer or t.Cleanup in the same function; production code
	// outside package main may not call one at all without an explained
	// suppression (the differential harness is the one sanctioned
	// caller).
	Toggles []string
}

// DefaultGlobalMutConfig guards the scheduling packages' globals and the
// three mode toggles the concurrent kernels key off.
var DefaultGlobalMutConfig = GlobalMutConfig{
	Scope: []string{
		"repro/internal/core",
		"repro/internal/cluster",
		"repro/internal/costmodel",
		"repro/internal/sim",
		"repro/internal/sweep",
		"repro/internal/sched",
	},
	Toggles: []string{
		"repro/internal/cluster.SetReferenceMode",
		"repro/internal/costmodel.SetReferenceMode",
		"repro/internal/costmodel.SetAggregationMode",
	},
}

// mutatingMethods are method names that write their receiver on the
// sync/atomic types package-level state is typically wrapped in
// (atomic.Bool/Int64/..., sync.Map). Read-side methods (Load, Range) and
// sync.Pool traffic (Get/Put) are not mutations of logical state.
var mutatingMethods = map[string]bool{
	"Store": true, "Swap": true, "CompareAndSwap": true, "Add": true,
	"Delete": true, "LoadOrStore": true, "LoadAndDelete": true,
}

// GlobalMut enforces process-global state discipline: scheduling-package
// globals may only be written from main, tests, or explained setters, and
// any test that flips a mode toggle must restore it before the test ends
// — a leaked toggle silently re-routes every later test through the wrong
// kernel, which is exactly how a fast/reference parity suite rots.
func GlobalMut(cfg GlobalMutConfig) *Analyzer {
	toggleSet := make(map[string]bool, len(cfg.Toggles))
	for _, t := range cfg.Toggles {
		toggleSet[t] = true
	}
	a := &Analyzer{
		Name: "globalmut",
		Doc: "package-level state in scheduling packages is only mutated " +
			"from main, tests, or annotated setters; tests restore flipped " +
			"toggles via defer/t.Cleanup",
	}
	a.Run = func(pass *Pass) {
		isMain := pass.Pkg != nil && pass.Pkg.Name() == "main"
		if inScope(pass.Path, cfg.Scope) && !isMain {
			for _, f := range pass.Files {
				globalMutWrites(pass, f)
			}
		}
		if !isMain {
			for _, f := range pass.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
						globalMutProdToggle(pass, toggleSet, fd)
					}
				}
			}
		}
		for _, f := range pass.TestFiles {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					globalMutTestToggle(pass, toggleSet, fd)
				}
			}
		}
	}
	return a
}

// pkgLevelVar resolves expr's root identifier to a package-level variable
// of the package under analysis, or nil.
func pkgLevelVar(pass *Pass, expr ast.Expr) *types.Var {
	obj := rootObject(pass, expr)
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg() != pass.Pkg {
		return nil
	}
	if v.Parent() != pass.Pkg.Scope() {
		return nil
	}
	return v
}

// globalMutWrites flags direct writes to package-level variables in one
// production file: plain assignments, ++/--, delete on a package-level
// map, and mutating method calls on package-level atomic/sync values.
func globalMutWrites(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := pkgLevelVar(pass, lhs); v != nil {
					pass.Reportf(lhs.Pos(),
						"write to package-level %s outside main or a test: process-global state needs an annotated setter (//lint:allow globalmut <reason>)",
						v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v := pkgLevelVar(pass, n.X); v != nil {
				pass.Reportf(n.X.Pos(),
					"write to package-level %s outside main or a test: process-global state needs an annotated setter (//lint:allow globalmut <reason>)",
					v.Name())
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					if v := pkgLevelVar(pass, n.Args[0]); v != nil {
						pass.Reportf(n.Pos(),
							"delete from package-level %s outside main or a test: process-global state needs an annotated setter (//lint:allow globalmut <reason>)",
							v.Name())
					}
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && mutatingMethods[sel.Sel.Name] {
				if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
					if v := pkgLevelVar(pass, sel.X); v != nil {
						pass.Reportf(n.Pos(),
							"%s on package-level %s outside main or a test: process-global state needs an annotated setter (//lint:allow globalmut <reason>)",
							sel.Sel.Name, v.Name())
					}
				}
			}
		}
		return true
	})
}

// toggleCallName returns the "importpath.FuncName" key of a call that
// resolves to a package-level function, or "".
func toggleCallName(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// globalMutProdToggle flags the first toggle call in a production
// function. Reported once per function: the sanctioned callers (the
// differential harness) flip several toggles back to back, and one
// explained suppression should cover the block, not one per line.
func globalMutProdToggle(pass *Pass, toggles map[string]bool, fd *ast.FuncDecl) {
	done := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || done {
			return !done
		}
		if name := toggleCallName(pass, call); toggles[name] {
			done = true
			pass.Reportf(call.Pos(),
				"%s flips process-global %s from production code: only main, tests, or an explained harness may switch modes",
				fd.Name.Name, name)
			return false
		}
		return true
	})
}

// globalMutTestToggle requires every toggle flipped in a test-file
// function to be restored in that same function, inside a defer or a
// Cleanup callback — the only forms that still run when the test fails
// midway. An early t.Fatal between an inline flip and an inline restore
// leaks the mode into every later test in the binary.
func globalMutTestToggle(pass *Pass, toggles map[string]bool, fd *ast.FuncDecl) {
	type flip struct {
		call *ast.CallExpr
		name string
	}
	var flips []flip
	restored := make(map[string]bool)

	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := toggleCallName(pass, call)
		if name == "" {
			// Cleanup registration is walked like everything else; the
			// toggle calls inside its closure are classified below.
			return true
		}
		if !toggles[name] {
			return true
		}
		if underRestore(stack) {
			restored[name] = true
		} else {
			flips = append(flips, flip{call, name})
		}
		return true
	})

	reported := make(map[string]bool)
	for _, fl := range flips {
		if restored[fl.name] || reported[fl.name] {
			continue
		}
		reported[fl.name] = true
		pass.Reportf(fl.call.Pos(),
			"%s flips %s without a deferred or Cleanup restore: a t.Fatal before the inline restore leaks the mode into every later test",
			fd.Name.Name, fl.name)
	}
}

// underRestore reports whether the node whose enclosing stack is given
// sits inside a defer statement or a closure passed to a Cleanup call
// (t.Cleanup, b.Cleanup — matched by method name).
func underRestore(stack []ast.Node) bool {
	for i, n := range stack {
		switch n := n.(type) {
		case *ast.DeferStmt:
			return true
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
				strings.HasSuffix(sel.Sel.Name, "Cleanup") {
				// Inside an argument of x.Cleanup(...): the next frame in
				// must be one of the call's arguments, i.e. not the Fun.
				if i+1 < len(stack) {
					if _, isFun := stack[i+1].(*ast.SelectorExpr); !isFun {
						return true
					}
				} else {
					return true
				}
			}
		}
	}
	return false
}
