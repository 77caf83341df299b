package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// DefaultFloatCmpScope covers the packages where cost-model float64s
// circulate: Eq. 5/6/7 values, communication ratios and event times.
var DefaultFloatCmpScope = []string{
	"repro/internal/costmodel",
	"repro/internal/core",
	"repro/internal/sim",
	"repro/internal/cluster",
	"repro/internal/sched",
}

// DefaultApprovedComparators are the helper functions inside which exact
// float comparison is the point: epsilon comparators, exact-identity
// helpers, and the total-order comparator family (also matched by the
// cmp*/compare*/less naming rule). Names match case-insensitively, so
// unexported variants of these helpers are approved too.
var DefaultApprovedComparators = []string{
	"ApproxEqual", "AlmostEqual", "EqExact", "sameTime",
}

// sortFuncCallees are the standard sort entry points whose comparator
// closures legitimately compare floats exactly (the enclosing contract is
// a total order, and the PR-2 comparators are total strict orders).
var sortFuncCallees = map[string]bool{
	"Slice": true, "SliceStable": true, "SliceIsSorted": true,
	"SortFunc": true, "SortStableFunc": true, "IsSortedFunc": true,
	"MinFunc": true, "MaxFunc": true, "BinarySearchFunc": true,
	"CompareFunc": true, "Search": true,
}

// FloatCmp flags == and != between floating-point values outside an
// approved comparator context. Exact float equality on computed costs is
// almost always a latent bug (one reassociation away from flipping a
// scheduling decision); the allowed forms are an approved helper, a
// total-order comparator (Less / cmp* / compare*), a sort-callback
// closure, or a comparison against the constant zero (the zero-value
// config sentinel, exact by construction).
func FloatCmp(scope, approved []string) *Analyzer {
	approvedSet := make(map[string]bool, len(approved))
	for _, n := range approved {
		approvedSet[strings.ToLower(n)] = true
	}
	a := &Analyzer{
		Name: "floatcmp",
		Doc: "forbids exact ==/!= on cost-model float64s outside approved " +
			"epsilon or total-order comparator helpers",
	}
	a.Run = func(pass *Pass) {
		if !inScope(pass.Path, scope) {
			return
		}
		for _, f := range pass.Files {
			inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if !isFloatOperand(pass, be.X) && !isFloatOperand(pass, be.Y) {
					return true
				}
				if isZeroConst(pass, be.X) || isZeroConst(pass, be.Y) {
					return true
				}
				if inComparatorContext(stack, approvedSet) {
					return true
				}
				pass.Reportf(be.Pos(),
					"exact float comparison (%s): use an approved epsilon/total-order comparator helper, or a cmp*/Less comparator",
					be.Op)
				return true
			})
		}
	}
	return a
}

func isFloatOperand(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isZeroConst reports whether e is a constant with value exactly zero.
func isZeroConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// inComparatorContext walks the enclosing nodes innermost-first looking
// for an approved comparator function or a closure passed to a sort
// function.
func inComparatorContext(stack []ast.Node, approved map[string]bool) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl:
			return approvedComparatorName(n.Name.Name, approved)
		case *ast.FuncLit:
			// Closure: approved when passed directly to a sort function.
			if i > 0 {
				if call, ok := stack[i-1].(*ast.CallExpr); ok &&
					sortFuncCallees[calleeName(call)] {
					return true
				}
			}
		}
	}
	return false
}

func approvedComparatorName(name string, approved map[string]bool) bool {
	lower := strings.ToLower(name)
	return approved[lower] || lower == "less" ||
		strings.HasPrefix(lower, "cmp") || strings.HasPrefix(lower, "compare")
}
