package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DefaultSharedWriteScope are the scheduling packages and the packages
// that run simulation cells concurrently: sweep.Each, the one worker pool
// (sweep, experiments and the verify matrix run their cells on it), and
// the daemon's connection and engine goroutines.
var DefaultSharedWriteScope = []string{
	"repro/internal/core",
	"repro/internal/daemon",
	"repro/internal/experiments",
	"repro/internal/sim",
	"repro/internal/sweep",
	"repro/internal/verify",
	"repro/internal/sched",
}

// SharedWrite polices writes inside goroutine bodies. The worker pools'
// determinism proof rests on a single discipline: a goroutine may write
// results only into its own index-disjoint slice slot (errs[i] =,
// points[i] =), through atomics, or over a channel. A bare write to a
// captured scalar (firstErr = err, count++) is a data race that the race
// detector only catches when the schedule cooperates; this analyzer
// catches it on every build. Writes to the goroutine's own locals are
// free; captured map writes are flagged (concurrent map writes fault at
// runtime, and index-disjointness does not save them).
func SharedWrite(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "sharedwrite",
		Doc: "goroutine bodies in scheduling packages write only " +
			"index-disjoint slice slots, atomics, or channels — never bare " +
			"captured variables",
	}
	a.Run = func(pass *Pass) {
		if !inScope(pass.Path, scope) {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
					sharedWriteLit(pass, lit)
				}
				return true
			})
		}
	}
	return a
}

// sharedWriteLit checks one goroutine FuncLit body. Nested closures stay
// inside the goroutine, so the whole subtree is held to the same rule;
// "captured" means declared outside lit itself.
func sharedWriteLit(pass *Pass, lit *ast.FuncLit) {
	capturedRoot := func(expr ast.Expr) types.Object {
		obj := rootObject(pass, expr)
		if obj == nil || nodeContains(lit, obj.Pos()) {
			return nil
		}
		return obj
	}
	checkTarget := func(lhs ast.Expr) {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[e]; obj != nil && !nodeContains(lit, obj.Pos()) {
				pass.Reportf(e.Pos(),
					"bare write to captured %s inside a goroutine: use an index-disjoint slice slot, an atomic, or a channel send", obj.Name())
			}
		case *ast.IndexExpr:
			obj := capturedRoot(e.X)
			if obj == nil {
				return
			}
			if tv, ok := pass.Info.Types[e.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(e.Pos(),
						"write to captured map %s inside a goroutine: concurrent map writes fault — index disjointness does not apply to maps", obj.Name())
				}
				// Slice/array index writes are the sanctioned
				// index-disjoint result slots.
			}
		case *ast.SelectorExpr, *ast.StarExpr:
			if obj := capturedRoot(e); obj != nil {
				pass.Reportf(lhs.Pos(),
					"write through captured %s inside a goroutine: per-goroutine results belong in index-disjoint slots, atomics, or channels", obj.Name())
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkTarget(lhs)
			}
		case *ast.IncDecStmt:
			checkTarget(n.X)
		}
		return true
	})
}

// nodeContains reports whether pos lies within n's source range.
func nodeContains(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}
