package analysis

import (
	"go/ast"
	"go/types"
)

// DefaultDeterminismScope lists the packages whose behaviour must be a
// pure function of (trace, topology, seed): everything that feeds a
// scheduling decision or an exported result. The paper's evaluation — and
// the PR-1/PR-2 differential proofs — are only reproducible because a run
// is bit-deterministic.
var DefaultDeterminismScope = []string{
	"repro/internal/sim",
	"repro/internal/core",
	"repro/internal/cluster",
	"repro/internal/costmodel",
	"repro/internal/collective",
	"repro/internal/faults",
	"repro/internal/search",
	"repro/internal/sched",
	"repro/internal/experiments",
}

// allowedRandConstructors are the math/rand package-level functions that
// build seeded generators rather than drawing from the global source.
var allowedRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Determinism flags the three ways nondeterminism leaks into simulator
// code: wall-clock reads (time.Now and friends), draws from the global
// math/rand source (a seeded *rand.Rand threaded through config is the
// allowed form), and ranging over a map (iteration order varies per run).
// A map range whose body is a single append — the collect-then-sort
// idiom — is allowed; the sort is the author's responsibility and the
// differential harness's to verify.
func Determinism(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc: "forbids wall-clock time, global math/rand and map-iteration " +
			"order from flowing into scheduling decisions or results",
	}
	a.Run = func(pass *Pass) {
		if !inScope(pass.Path, scope) {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkDeterminismCall(pass, n)
				case *ast.RangeStmt:
					checkMapRange(pass, n)
				}
				return true
			})
		}
	}
	return a
}

func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are the allowed form
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"time.%s in simulator code: wall-clock reads break deterministic replay; derive times from the event clock",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the process-global source: thread a seeded *rand.Rand through config instead",
				fn.Name())
		}
	}
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if isSingleAppendBody(rs.Body) {
		return // collect-then-sort idiom
	}
	pass.Reportf(rs.Pos(),
		"range over map: iteration order is nondeterministic; collect and sort keys first (a single-append collect loop is allowed)")
}

// isSingleAppendBody reports whether the loop body is exactly one
// statement of the form `x = append(x, ...)`.
func isSingleAppendBody(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) != 1 {
		return false
	}
	as, ok := body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}
