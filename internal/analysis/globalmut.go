package analysis

import (
	"go/ast"
	"go/types"
)

// DefaultGlobalMutScope are the scheduling packages whose package-level
// mutable state is guarded: any write to a package-level variable
// (assignment, ++/--, delete, or a mutating method call on a package-level
// atomic/sync value) must come from package main, a test file, or a site
// carrying an explained //lint:allow globalmut (an internally synchronized
// cache). There are no process-global mode switches left to police: the
// reference/optimized mode is a field of each cluster.State.
var DefaultGlobalMutScope = []string{
	"repro/internal/core",
	"repro/internal/cluster",
	"repro/internal/costmodel",
	"repro/internal/sim",
	"repro/internal/sweep",
	"repro/internal/sched",
}

// mutatingMethods are method names that write their receiver on the
// sync/atomic types package-level state is typically wrapped in
// (atomic.Bool/Int64/..., sync.Map). Read-side methods (Load, Range) are
// not mutations of logical state.
var mutatingMethods = map[string]bool{
	"Store": true, "Swap": true, "CompareAndSwap": true, "Add": true,
	"Delete": true, "LoadOrStore": true, "LoadAndDelete": true,
}

// GlobalMut enforces process-global state discipline: scheduling-package
// globals may only be written from main, tests, or explained sites —
// behaviour that depends on a global being in the right state is behaviour
// one test can change for every later one.
func GlobalMut(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "globalmut",
		Doc: "package-level state in scheduling packages is only mutated " +
			"from main, tests, or annotated sites",
	}
	a.Run = func(pass *Pass) {
		if inScope(pass.Path, scope) && pass.Pkg != nil && pass.Pkg.Name() != "main" {
			for _, f := range pass.Files {
				globalMutWrites(pass, f)
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
						"write to package-level %s outside main or a test: process-global state needs an explained //lint:allow globalmut <reason>",
						v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v := pkgLevelVar(pass, n.X); v != nil {
				pass.Reportf(n.X.Pos(),
					"write to package-level %s outside main or a test: process-global state needs an explained //lint:allow globalmut <reason>",
					v.Name())
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					if v := pkgLevelVar(pass, n.Args[0]); v != nil {
						pass.Reportf(n.Pos(),
							"delete from package-level %s outside main or a test: process-global state needs an explained //lint:allow globalmut <reason>",
							v.Name())
					}
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && mutatingMethods[sel.Sel.Name] {
				if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
					if v := pkgLevelVar(pass, sel.X); v != nil {
						pass.Reportf(n.Pos(),
							"%s on package-level %s outside main or a test: process-global state needs an explained //lint:allow globalmut <reason>",
							sel.Sel.Name, v.Name())
					}
				}
			}
		}
		return true
	})
}
