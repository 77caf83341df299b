package analysis

import (
	"go/ast"
	"go/types"
)

// GenBumpConfig names the struct whose mutations must bump a generation
// counter, the fields that constitute observable state, and the counter
// field itself.
type GenBumpConfig struct {
	// PkgPath/TypeName identify the guarded struct (cluster.State).
	PkgPath  string
	TypeName string
	// Guarded are the node-state fields: writing any of them changes what
	// generation-keyed caches may serve.
	Guarded []string
	// Counter is the generation field a mutator must bump.
	Counter string
}

// DefaultGenBumpConfig guards cluster.State: the paircache/schedcache
// invalidation contract from PR 2 keys cached cost evaluations on
// State.Generation(), so every mutation of node state must bump gen or
// caches silently serve stale hops.
var DefaultGenBumpConfig = GenBumpConfig{
	PkgPath:  "repro/internal/cluster",
	TypeName: "State",
	Guarded: []string{
		"busyBits", "downBits", "failedBits", "leafBusy", "leafComm",
		"leafUnavail", "free", "switchFree", "allocs",
	},
	Counter: "gen",
}

// GenBump enforces generation discipline. Outside the owning package any
// direct field write to the guarded struct is flagged (the compiler
// already blocks unexported fields; this keeps the contract if a field is
// ever exported). Inside the owning package, a function that writes a
// guarded field of a State it did not construct itself must also bump the
// counter on that same State.
func GenBump(cfg GenBumpConfig) *Analyzer {
	a := &Analyzer{
		Name: "genbump",
		Doc: "mutations of " + cfg.TypeName + " node state must bump the " +
			"generation counter that invalidates evaluation-scoped caches",
	}
	a.Run = func(pass *Pass) {
		if pass.Path != cfg.PkgPath {
			genBumpOutside(pass, cfg)
			return
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Body != nil {
					genBumpFunc(pass, cfg, fd)
				}
			}
		}
	}
	return a
}

// genBumpOutside flags guarded-field writes from foreign packages.
func genBumpOutside(pass *Pass, cfg GenBumpConfig) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			for _, w := range writesIn(pass, cfg, n) {
				pass.Reportf(w.sel.Pos(),
					"direct write to %s.%s outside %s: use the package's mutator methods so the generation counter stays correct",
					cfg.TypeName, w.field, cfg.PkgPath)
			}
			return true
		})
	}
}

// fieldWrite is one write to a guarded field: the selector and the root
// object the chain hangs off (the `s` in s.leafBusy[l]++).
type fieldWrite struct {
	sel   *ast.SelectorExpr
	field string
	root  types.Object
}

// guardedSelector finds the first selector in expr's unwrap chain whose
// base is the guarded struct and whose field is in the guarded (or
// counter) set; it returns the write, or nil.
func guardedSelector(pass *Pass, cfg GenBumpConfig, expr ast.Expr, fields map[string]bool) *fieldWrite {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if fields[e.Sel.Name] {
				if tv, ok := pass.Info.Types[e.X]; ok &&
					isNamed(tv.Type, cfg.PkgPath, cfg.TypeName) {
					return &fieldWrite{sel: e, field: e.Sel.Name, root: rootObject(pass, e.X)}
				}
			}
			expr = e.X
		default:
			return nil
		}
	}
}

// rootObject resolves the innermost identifier of a selector chain to its
// object, or nil.
func rootObject(pass *Pass, expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.Ident:
			if o := pass.Info.Uses[e]; o != nil {
				return o
			}
			return pass.Info.Defs[e]
		default:
			return nil
		}
	}
}

// writesIn returns the guarded-field writes performed directly by n:
// assignments, ++/--, and delete() on a guarded map field.
func writesIn(pass *Pass, cfg GenBumpConfig, n ast.Node) []*fieldWrite {
	guarded := make(map[string]bool, len(cfg.Guarded))
	for _, g := range cfg.Guarded {
		guarded[g] = true
	}
	var out []*fieldWrite
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if w := guardedSelector(pass, cfg, lhs, guarded); w != nil {
				out = append(out, w)
			}
		}
	case *ast.IncDecStmt:
		if w := guardedSelector(pass, cfg, n.X, guarded); w != nil {
			out = append(out, w)
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				// builtin delete(m, k) mutates m
				if w := guardedSelector(pass, cfg, n.Args[0], guarded); w != nil {
					out = append(out, w)
				}
			}
		}
	}
	return out
}

// genBumpFunc checks one function in the owning package: every guarded
// write through a State the function did not construct must be matched by
// a counter bump on the same State.
func genBumpFunc(pass *Pass, cfg GenBumpConfig, fd *ast.FuncDecl) {
	counter := map[string]bool{cfg.Counter: true}
	locals := make(map[types.Object]bool) // States constructed in this function
	var writes []*fieldWrite
	bumped := make(map[types.Object]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		// Track `s := &State{...}` / `var s = State{...}` constructions.
		if as, ok := n.(*ast.AssignStmt); ok {
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				if !isStructLit(pass, cfg, rhs) {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					if o := pass.Info.Defs[id]; o != nil {
						locals[o] = true
					}
				}
			}
		}
		for _, w := range writesIn(pass, cfg, n) {
			writes = append(writes, w)
		}
		// Counter bumps: s.gen++ or s.gen = ...
		switch n := n.(type) {
		case *ast.IncDecStmt:
			if w := guardedSelector(pass, cfg, n.X, counter); w != nil && w.root != nil {
				bumped[w.root] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if w := guardedSelector(pass, cfg, lhs, counter); w != nil && w.root != nil {
					bumped[w.root] = true
				}
			}
		}
		return true
	})

	reported := make(map[types.Object]bool)
	for _, w := range writes {
		if w.root == nil || locals[w.root] || bumped[w.root] || reported[w.root] {
			continue
		}
		reported[w.root] = true
		pass.Reportf(w.sel.Pos(),
			"%s writes %s.%s without bumping %s: generation-keyed caches would serve stale results",
			fd.Name.Name, cfg.TypeName, w.field, cfg.Counter)
	}
}

// isStructLit reports whether expr is a composite literal (possibly
// behind &) of the guarded struct type.
func isStructLit(pass *Pass, cfg GenBumpConfig, expr ast.Expr) bool {
	e := ast.Unparen(expr)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = u.X
	}
	cl, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	tv, ok := pass.Info.Types[cl]
	return ok && isNamed(tv.Type, cfg.PkgPath, cfg.TypeName)
}
