package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DefaultPoolHygieneScope are the packages whose sync.Pool arenas the
// hot paths recycle: the selector scratches and the costmodel evaluation
// arenas, plus the packages that drive them concurrently.
var DefaultPoolHygieneScope = []string{
	"repro/internal/core",
	"repro/internal/cluster",
	"repro/internal/costmodel",
	"repro/internal/daemon",
	"repro/internal/sim",
	"repro/internal/sweep",
	"repro/internal/sched",
}

// PoolHygiene enforces the pooled-arena contract the zero-alloc kernels
// depend on: every sync.Pool.Get (direct or through an acquire wrapper
// like acquirePairCache/getScratch) binds to a variable that is Put or
// released in the same function, on every return path, and the pooled
// pointer never escapes — not returned, not stored into a struct, slice,
// map or global, not sent on a channel, and not captured by a goroutine
// or a non-defer closure. A leaked arena turns the pool into a GC churn
// generator; an escaped one is a use-after-Put race. The walk is
// flow-insensitive over the AST in the genbump style: wrappers are
// recognized per package, then every caller is checked against the
// acquire/release pairing.
func PoolHygiene(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "poolhygiene",
		Doc: "sync.Pool.Get in scheduling packages pairs with an all-paths " +
			"Put/release and the pooled pointer never escapes the function",
	}
	a.Run = func(pass *Pass) {
		if !inScope(pass.Path, scope) {
			return
		}
		acquires, releases := poolWrappers(pass)
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok && acquires[obj] {
					// The acquire wrapper's whole job is to Get and hand
					// the arena out; its callers carry the obligations.
					continue
				}
				poolHygieneFunc(pass, fd, acquires, releases)
			}
		}
	}
	return a
}

// isSyncPool reports whether t (possibly behind a pointer) is sync.Pool.
func isSyncPool(t types.Type) bool {
	return isNamed(t, "sync", "Pool")
}

// poolGetCall returns the receiver expression of a sync.Pool Get or Put
// call, or nil.
func poolCall(pass *Pass, call *ast.CallExpr, method string) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil
	}
	if tv, ok := pass.Info.Types[sel.X]; ok && isSyncPool(tv.Type) {
		return sel.X
	}
	return nil
}

// poolWrappers classifies this package's acquire wrappers (functions that
// Get from a pool and return the asserted arena type) and release
// wrappers (functions or methods that Put their receiver or a parameter
// back). Wrappers are how the tree spells the idiom — getScratch /
// (*selScratch).release — so callers are checked against wrapper calls
// exactly like raw Get/Put.
func poolWrappers(pass *Pass) (acquires, releases map[*types.Func]bool) {
	acquires = make(map[*types.Func]bool)
	releases = make(map[*types.Func]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)

			// Acquire wrapper: Gets from a pool, and some result type
			// matches the type the Get result is asserted to.
			var gotTypes []types.Type
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ta, ok := n.(*ast.TypeAssertExpr)
				if !ok {
					return true
				}
				if call, ok := ast.Unparen(ta.X).(*ast.CallExpr); ok &&
					poolCall(pass, call, "Get") != nil {
					if tv, ok := pass.Info.Types[ta]; ok {
						gotTypes = append(gotTypes, tv.Type)
					}
				}
				return true
			})
			for _, gt := range gotTypes {
				for i := 0; i < sig.Results().Len(); i++ {
					if types.Identical(sig.Results().At(i).Type(), gt) {
						acquires[obj] = true
					}
				}
			}

			// Release wrapper: Puts its receiver or a parameter.
			owned := make(map[types.Object]bool)
			if r := sig.Recv(); r != nil {
				owned[r] = true
			}
			for i := 0; i < sig.Params().Len(); i++ {
				owned[sig.Params().At(i)] = true
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || poolCall(pass, call, "Put") == nil || len(call.Args) != 1 {
					return true
				}
				if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					if o := pass.Info.Uses[id]; o != nil && owned[o] {
						releases[obj] = true
					}
				}
				return true
			})
		}
	}
	return acquires, releases
}

// acquisition is one pooled-arena acquisition inside a function: the
// variable it binds to and where.
type acquisition struct {
	pos token.Pos
	obj types.Object // bound variable, nil when the result is used inline
}

// poolHygieneFunc checks one non-wrapper function.
func poolHygieneFunc(pass *Pass, fd *ast.FuncDecl, acquires, releases map[*types.Func]bool) {
	// isAcquireCall reports whether call yields a pooled arena: a raw
	// pool.Get (possibly inside a type assertion handled by the caller)
	// or a call to a known acquire wrapper.
	isAcquireExpr := func(expr ast.Expr) bool {
		e := ast.Unparen(expr)
		if ta, ok := e.(*ast.TypeAssertExpr); ok {
			e = ast.Unparen(ta.X)
		}
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		if poolCall(pass, call, "Get") != nil {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		return fn != nil && acquires[fn]
	}

	var acqs []acquisition
	seen := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			// A Get/acquire whose result is not assigned at all: find it
			// via expression statements and any other context below.
			return true
		}
		for i, rhs := range as.Rhs {
			if !isAcquireExpr(rhs) || i >= len(as.Lhs) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				acqs = append(acqs, acquisition{pos: rhs.Pos()})
				continue
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj == nil || seen[obj] {
				continue
			}
			seen[obj] = true
			acqs = append(acqs, acquisition{pos: rhs.Pos(), obj: obj})
		}
		return true
	})
	// Unbound acquisitions: Get/acquire calls that are not the RHS of any
	// assignment (inline selector use, bare statement, argument).
	assigned := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			e := ast.Unparen(rhs)
			if ta, ok := e.(*ast.TypeAssertExpr); ok {
				e = ast.Unparen(ta.X)
			}
			if call, ok := e.(*ast.CallExpr); ok {
				assigned[call] = true
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || assigned[call] {
			return true
		}
		isAcq := poolCall(pass, call, "Get") != nil
		if !isAcq {
			fn := calleeFunc(pass.Info, call)
			isAcq = fn != nil && acquires[fn]
		}
		if isAcq {
			pass.Reportf(call.Pos(),
				"pooled Get result is not bound to a variable: its Put/release cannot be verified")
			return false
		}
		return true
	})

	for _, acq := range acqs {
		if acq.obj == nil {
			pass.Reportf(acq.pos,
				"pooled Get result is not bound to a plain variable: its Put/release cannot be verified")
			continue
		}
		checkPooledVar(pass, fd, acq, releases)
	}
}

// checkPooledVar verifies one pooled variable's release pairing and
// escape-freedom inside fd.
func checkPooledVar(pass *Pass, fd *ast.FuncDecl, acq acquisition, releases map[*types.Func]bool) {
	name := acq.obj.Name()
	var releasePos token.Pos
	releaseDeferred := false

	// usesObj reports whether expr is an identifier for the pooled var.
	usesObj := func(expr ast.Expr) bool {
		id, ok := ast.Unparen(expr).(*ast.Ident)
		return ok && (pass.Info.Uses[id] == acq.obj || pass.Info.Defs[id] == acq.obj)
	}

	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// pool.Put(v), v.release(), release(v).
			released := false
			if poolCall(pass, n, "Put") != nil && len(n.Args) == 1 && usesObj(n.Args[0]) {
				released = true
			} else if fn := calleeFunc(pass.Info, n); fn != nil && releases[fn] {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && usesObj(sel.X) {
					released = true
				}
				for _, arg := range n.Args {
					if usesObj(arg) {
						released = true
					}
				}
			}
			if released {
				releasePos = n.Pos()
				for _, s := range stack {
					if _, ok := s.(*ast.DeferStmt); ok {
						releaseDeferred = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if exprMentionsObj(pass, res, acq.obj, usesObj) {
					pass.Reportf(res.Pos(),
						"pooled %s escapes via return: the arena outlives its pool discipline", name)
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !usesObj(rhs) {
					continue
				}
				var lhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					lhs = n.Lhs[i]
				} else if len(n.Lhs) > 0 {
					lhs = n.Lhs[0]
				}
				if lhs == nil {
					continue
				}
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					pass.Reportf(rhs.Pos(),
						"pooled %s stored outside the function's locals: the arena may outlive its Put", name)
				case *ast.Ident:
					if v := pkgLevelVar(pass, lhs); v != nil {
						pass.Reportf(rhs.Pos(),
							"pooled %s stored in package-level %s: the arena may outlive its Put", name, v.Name())
					}
				}
			}
		case *ast.SendStmt:
			if usesObj(n.Value) {
				pass.Reportf(n.Value.Pos(),
					"pooled %s sent on a channel: the receiver may use it after Put", name)
			}
		case *ast.Ident:
			if pass.Info.Uses[n] != acq.obj {
				return true
			}
			for _, s := range stack {
				if _, ok := s.(*ast.GoStmt); ok {
					pass.Reportf(n.Pos(),
						"pooled %s captured by a goroutine: concurrent use races with Put", name)
					return true
				}
			}
			if lit := enclosingNonDeferFuncLit(stack); lit != nil && !nodeContains(lit, acq.pos) {
				pass.Reportf(n.Pos(),
					"pooled %s captured by a closure that may outlive this call: Put/release discipline is unverifiable", name)
			}
		}
		return true
	})

	if releasePos == token.NoPos {
		pass.Reportf(acq.pos,
			"pooled %s is acquired but never Put/released in this function: the arena leaks back to the garbage collector", name)
		return
	}
	if !releaseDeferred {
		// Flow-insensitive all-paths check: a plain (non-deferred) release
		// must not have a return between the acquisition and itself —
		// that return path skips the Put.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			if ret.Pos() > acq.pos && ret.End() <= releasePos {
				pass.Reportf(ret.Pos(),
					"return between %s's acquisition and its non-deferred release: this path leaks the arena — defer the release", name)
			}
			return true
		})
	}
}

// exprMentionsObj reports whether expr mentions the pooled object as a
// direct operand (v, &v, (v)) — reading a field out of the arena and
// returning that is fine; returning the arena itself is the escape.
func exprMentionsObj(pass *Pass, expr ast.Expr, obj types.Object, usesObj func(ast.Expr) bool) bool {
	e := ast.Unparen(expr)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	return ok && (pass.Info.Uses[id] == obj || pass.Info.Defs[id] == obj)
}

// enclosingNonDeferFuncLit returns the innermost FuncLit in the stack
// that is not the immediate function of a defer statement, or nil.
func enclosingNonDeferFuncLit(stack []ast.Node) *ast.FuncLit {
	for i := len(stack) - 1; i >= 0; i-- {
		lit, ok := stack[i].(*ast.FuncLit)
		if !ok {
			continue
		}
		// defer func() { ... }(): DeferStmt -> CallExpr -> FuncLit.
		if i >= 2 {
			if _, isDefer := stack[i-2].(*ast.DeferStmt); isDefer {
				if call, isCall := stack[i-1].(*ast.CallExpr); isCall && call.Fun == lit {
					continue
				}
			}
		}
		return lit
	}
	return nil
}

// nodeContains reports whether pos lies within n's source range.
func nodeContains(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}
