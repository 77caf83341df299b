package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RefParityConfig describes where the opt/ref dual implementations live.
type RefParityConfig struct {
	// FastPath maps a package path to the identifiers that constitute its
	// fast-path state: incrementally maintained struct fields (by field
	// name) and package-level cache variables (pools, sync.Maps). Any
	// exported function consuming these must be switchable to a reference
	// implementation.
	FastPath map[string][]string
	// OwnerType, per package path, optionally names the struct type whose
	// constructors/cloners are exempt: a function returning the whole
	// state is not answering a query from cached state.
	OwnerType map[string]string
}

// DefaultRefParityConfig covers the two packages with fast paths:
// cluster's per-switch free counters and costmodel's schedule memo.
var DefaultRefParityConfig = RefParityConfig{
	FastPath: map[string][]string{
		"repro/internal/cluster":   {"switchFree"},
		"repro/internal/costmodel": {"schedules"},
	},
	OwnerType: map[string]string{
		"repro/internal/cluster": "State",
	},
}

// RefParity keeps the PR-2 equivalence proof total in every package with
// configured fast-path state. The reference/optimized mode is a property of
// the cluster.State being priced — its reference field, read through
// Reference() outside the package — so the flag is recognised where it is
// read:
//
//  1. the package must branch on the flag somewhere: fast-path state that
//     no mode ever bypasses has no reference run to diff against;
//  2. every exported function that consumes fast-path state (directly or
//     via an unexported helper) must either read the flag or call a
//     reference counterpart (a function named *Slow or *Ref), so no fast
//     path exists without a reference implementation to diff against;
//  3. every reference counterpart must be reachable from a flag-guarded
//     branch — an orphaned *Slow/*Ref function means the equivalence
//     harness is no longer exercising it.
func RefParity(cfg RefParityConfig) *Analyzer {
	a := &Analyzer{
		Name: "refparity",
		Doc: "exported fast-path functions must have a registered reference " +
			"counterpart, reachable from a branch on the state's reference flag",
	}
	a.Run = func(pass *Pass) { runRefParity(pass, cfg) }
	return a
}

const (
	flagFieldName = "reference" // the state's mode field
	flagReadName  = "Reference" // its accessor
)

// readsFlag reports whether n reads the reference flag: a selection of a
// struct field named reference, or a call of a method named Reference.
func readsFlag(pass *Pass, n ast.Node) bool {
	sel, _ := n.(*ast.SelectorExpr)
	want, kind := flagFieldName, types.FieldVal
	if call, ok := n.(*ast.CallExpr); ok {
		sel, _ = ast.Unparen(call.Fun).(*ast.SelectorExpr)
		want, kind = flagReadName, types.MethodVal
	}
	if sel == nil || sel.Sel.Name != want {
		return false
	}
	s := pass.Info.Selections[sel]
	return s != nil && s.Kind() == kind
}

func isCounterpartName(name string) bool {
	return strings.HasSuffix(name, "Slow") || strings.HasSuffix(name, "Ref")
}

type funcFacts struct {
	decl         *ast.FuncDecl
	exported     bool
	usesFastPath bool
	hasGuard     bool            // reads the reference flag
	callsRefImpl bool            // calls a *Slow/*Ref function
	callees      map[string]bool // same-package unexported callees by name
}

func runRefParity(pass *Pass, cfg RefParityConfig) {
	fastIdents := make(map[string]bool)
	for _, id := range cfg.FastPath[pass.Path] {
		fastIdents[id] = true
	}
	if len(fastIdents) == 0 {
		return
	}
	anyGuard := false

	// Gather per-function facts and the set of calls made inside
	// flag-guarded branches anywhere in the package.
	facts := make(map[string]*funcFacts)
	guardedCalls := make(map[string]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ff := &funcFacts{
				decl:     fd,
				exported: fd.Name.IsExported(),
				callees:  make(map[string]bool),
			}
			// Fast-path state is consumed by READS; writes are the shared
			// maintenance both modes perform (adjustFree keeping the
			// counters correct is not a fast path — reading them instead
			// of rescanning is). Collect assignment-target positions so
			// the walk below can tell the two apart.
			writePos := make(map[token.Pos]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markIdentPositions(lhs, writePos)
					}
				case *ast.IncDecStmt:
					markIdentPositions(n.X, writePos)
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if readsFlag(pass, n) {
					ff.hasGuard = true
				}
				switch n := n.(type) {
				case *ast.Ident:
					if fastIdents[n.Name] && samePackageObj(pass, n) && !writePos[n.Pos()] {
						ff.usesFastPath = true
					}
				case *ast.CallExpr:
					if isCounterpartName(calleeName(n)) {
						ff.callsRefImpl = true
					}
					if fn := calleeFunc(pass.Info, n); fn != nil &&
						fn.Pkg() == pass.Pkg && !fn.Exported() {
						ff.callees[fn.Name()] = true
					}
				case *ast.IfStmt:
					if mentionsFlag(pass, n.Cond) {
						anyGuard = true
						collectCallNames(n.Body, guardedCalls)
						if n.Else != nil {
							collectCallNames(n.Else, guardedCalls)
						}
					}
				}
				return true
			})
			facts[fd.Name.Name] = ff
		}
	}

	if !anyGuard {
		pass.Reportf(pass.Files[0].Pos(),
			"package has configured fast-path state but never branches on the state's %s flag: the reference/optimized switch is gone",
			flagFieldName)
		return
	}

	ownerType := cfg.OwnerType[pass.Path]
	for _, ff := range facts {
		name := ff.decl.Name.Name
		if !ff.exported || isCounterpartName(name) || name == flagReadName {
			continue
		}
		if ownerType != "" && returnsOwner(pass, ff.decl, ownerType) {
			continue // constructor/cloner hands back the whole state
		}
		uses := ff.usesFastPath
		for callee := range ff.callees {
			if cf, ok := facts[callee]; ok && cf.usesFastPath {
				uses = true
			}
		}
		if uses && !ff.hasGuard && !ff.callsRefImpl {
			pass.Reportf(ff.decl.Name.Pos(),
				"%s consumes fast-path state but neither reads the %s flag nor calls a *Slow/*Ref counterpart: the opt/ref equivalence proof no longer covers it",
				name, flagFieldName)
		}
	}

	for _, ff := range facts {
		name := ff.decl.Name.Name
		if !isCounterpartName(name) {
			continue
		}
		if !guardedCalls[name] {
			pass.Reportf(ff.decl.Name.Pos(),
				"reference counterpart %s is never called from a %s-guarded branch: no reference state exercises it",
				name, flagFieldName)
		}
	}
}

// markIdentPositions records the positions of every identifier under
// expr (an assignment target, including its index expressions — all
// maintenance context).
func markIdentPositions(expr ast.Expr, into map[token.Pos]bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			into[id.Pos()] = true
		}
		return true
	})
}

// samePackageObj reports whether the identifier resolves to an object
// declared in the package under analysis (as opposed to an import).
func samePackageObj(pass *Pass, id *ast.Ident) bool {
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	return obj != nil && obj.Pkg() == pass.Pkg
}

// mentionsFlag reports whether the condition reads the reference flag
// (s.reference, !st.Reference(), ...).
func mentionsFlag(pass *Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		found = found || readsFlag(pass, n)
		return !found
	})
	return found
}

// collectCallNames records the bare names of all calls under n.
func collectCallNames(n ast.Node, into map[string]bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if name := calleeName(call); name != "" {
				into[name] = true
			}
		}
		return true
	})
}

// returnsOwner reports whether the function's results include the owner
// struct type (by name, possibly behind a pointer).
func returnsOwner(pass *Pass, fd *ast.FuncDecl, owner string) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, field := range fd.Type.Results.List {
		tv, ok := pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		if n := namedType(tv.Type); n != nil && n.Obj().Name() == owner &&
			n.Obj().Pkg() == pass.Pkg {
			return true
		}
	}
	return false
}
