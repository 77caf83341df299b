package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The //caws:noalloc directive marks a hot kernel as steady-state
// allocation-free. Three gates hold the claim:
//
//  1. This analyzer: required kernels carry the annotation, and annotated
//     bodies contain no unconditional allocation site (make, new, &T{},
//     slice/map literals, closures, non-self appends) outside a guarded
//     grow path (an if) or an error-return tail.
//  2. scripts/noalloc-check.sh: `go build -gcflags=-m=2` escape
//     diagnostics inside annotated ranges (minus the sanctioned guarded
//     sub-ranges emitted by cawslint -noalloc-ranges) fail the build —
//     the compiler's own escape analysis proves the straight-line path
//     heap-free.
//  3. Driver tests assert testing.AllocsPerRun == 0 on the warm paths,
//     proving the guarded grow branches really are cold in steady state.
const noallocDirective = "caws:noalloc"

// NoAllocConfig lists, per package, the functions that must carry the
// //caws:noalloc annotation. Method names are spelled ReceiverType.Name.
type NoAllocConfig struct {
	Require map[string][]string
}

// DefaultNoAllocConfig pins the kernels the BENCH_*.json zero-alloc
// results depend on: the one-pass pricing walk, the selector inner
// helpers and the placement path that works in a caller's scratch.
var DefaultNoAllocConfig = NoAllocConfig{
	Require: map[string][]string{
		"repro/internal/cluster": {"State.Release", "RunStore.Place"},
		"repro/internal/costmodel": {
			"Scratch.price",
			"walker.block",
			"Scratch.hops",
		},
		"repro/internal/core": {
			"Scratch.begin",
			"Scratch.take",
			"Scratch.placement",
			"adaptiveSelector.Place",
			"snapshotLeaves",
			"sortLeaves",
		},
		"repro/internal/daemon": {
			"readFrame",
			"appendRequest",
			"appendResponse",
			"encoder.job",
			"Daemon.walkRows",
			"listing.render",
			"latRing.recordAck",
			"latRing.recordWait",
		},
		"repro/internal/sched": {
			"Running.Reservation",
			"Core.Pass",
		},
	},
}

// NoAlloc enforces the annotation side of the zero-alloc contract (gates
// 1 above; the escape gate and the AllocsPerRun drivers are wired into
// make lint and go test).
func NoAlloc(cfg NoAllocConfig) *Analyzer {
	a := &Analyzer{
		Name: "noalloc",
		Doc: "//caws:noalloc kernels exist, and contain no unconditional " +
			"allocation site outside guarded grow paths and return tails",
	}
	a.Run = func(pass *Pass) {
		required := make(map[string]bool)
		for _, name := range cfg.Require[pass.Path] {
			required[name] = true
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				name := funcDisplayName(fd)
				annotated := hasNoAllocDirective(fd)
				if required[name] && !annotated {
					pass.Reportf(fd.Name.Pos(),
						"hot kernel %s must carry //caws:noalloc: the benchmarked zero-alloc fast path is unguarded without it", name)
				}
				if annotated && fd.Body != nil {
					noAllocBody(pass, fd, name)
				}
				delete(required, name)
			}
		}
		for name := range required {
			if len(pass.Files) > 0 {
				pass.Reportf(pass.Files[0].Name.Pos(),
					"required //caws:noalloc kernel %s not found in %s: update DefaultNoAllocConfig if it was renamed", name, pass.Path)
			}
		}
	}
	return a
}

// hasNoAllocDirective reports whether the function's doc comment carries
// //caws:noalloc.
func hasNoAllocDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), noallocDirective) {
			return true
		}
	}
	return false
}

// funcDisplayName renders a FuncDecl as Name or ReceiverType.Name.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X // generic receiver Core[J]
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// sanctioned reports whether the stack passes through an if statement or
// a return statement within the annotated function: guarded grow paths
// (if cap < n { buf = make(...) }) and error-return tails are the two
// places a noalloc kernel may legitimately spell an allocation, because
// the steady state never takes them — which the AllocsPerRun driver then
// proves.
func sanctioned(stack []ast.Node) bool {
	for _, s := range stack {
		switch s.(type) {
		case *ast.IfStmt, *ast.ReturnStmt:
			return true
		}
	}
	return false
}

// noAllocBody flags unconditional allocation sites in one annotated
// function.
func noAllocBody(pass *Pass, fd *ast.FuncDecl, name string) {
	report := func(n ast.Node, what string) {
		pass.Reportf(n.Pos(),
			"unconditional %s in //caws:noalloc %s: steady-state allocation on the hot path — guard it behind a grow check or keep the buffer in a caller-owned scratch", what, name)
	}
	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		if sanctioned(stack) {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "make", "new":
						report(n, id.Name)
					case "append":
						if !selfAppend(pass, n, stack) {
							report(n, "non-self append")
						}
					}
				}
			}
		case *ast.CompositeLit:
			tv, ok := pass.Info.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				report(n, "slice/map literal")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n, "&composite literal")
				}
			}
		case *ast.FuncLit:
			report(n, "closure")
		}
		return true
	})
}

// selfAppend reports whether the append call grows its own assignment
// target (x = append(x, ...)), the only append form that stays
// allocation-free once capacity is warm.
func selfAppend(pass *Pass, call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	src := rootObject(pass, call.Args[0])
	if src == nil {
		return false
	}
	for i := len(stack) - 1; i >= 0; i-- {
		as, ok := stack[i].(*ast.AssignStmt)
		if !ok {
			continue
		}
		for _, lhs := range as.Lhs {
			if rootObject(pass, lhs) == src {
				return true
			}
		}
	}
	// `return append(x, ...)` keeps x's identity too, but a return is
	// already sanctioned, so reaching here means the append result is
	// discarded or rebound — not self-growth.
	return false
}

// NoAllocRange is one line span for scripts/noalloc-check.sh: Kind
// "func" spans an annotated kernel, Kind "allow" spans a sanctioned
// guarded/return sub-range inside one.
type NoAllocRange struct {
	File      string
	StartLine int
	EndLine   int
	Kind      string
	Func      string
}

// NoAllocRanges lists every annotated function's line range and its
// sanctioned sub-ranges across the packages, sorted by file and line.
func NoAllocRanges(pkgs []*Package) []NoAllocRange {
	var out []NoAllocRange
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasNoAllocDirective(fd) || fd.Body == nil {
					continue
				}
				start := pkg.Fset.Position(fd.Pos())
				end := pkg.Fset.Position(fd.End())
				out = append(out, NoAllocRange{
					File: start.Filename, StartLine: start.Line, EndLine: end.Line,
					Kind: "func", Func: funcDisplayName(fd),
				})
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n.(type) {
					case *ast.IfStmt, *ast.ReturnStmt:
						s := pkg.Fset.Position(n.Pos())
						e := pkg.Fset.Position(n.End())
						out = append(out, NoAllocRange{
							File: s.Filename, StartLine: s.Line, EndLine: e.Line,
							Kind: "allow",
						})
					}
					return true
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.StartLine != b.StartLine {
			return a.StartLine < b.StartLine
		}
		return a.Kind < b.Kind
	})
	return out
}
