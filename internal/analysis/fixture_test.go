package analysis

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestFixtures runs each analyzer over its testdata packages and checks
// the diagnostics against analysistest-style expectations:
//
//	code() // want `regexp`
//	// want+N `regexp`   (expectation for the line N below the comment)
//
// Every fixture pair has a bad package (each finding annotated) and a
// clean package (zero findings); refparity has a second bad one, for the
// finding that pre-empts the others. Fixtures may pose as scoped packages
// like repro/internal/sim: the loader assigns the import path, and the
// analyzers match scope, structs and enums nominally.
func TestFixtures(t *testing.T) {
	refCfg := RefParityConfig{
		FastPath:  map[string][]string{"repro/fixture/refparity": {"cache"}},
		OwnerType: map[string]string{"repro/fixture/refparity": "State"},
	}
	gmScope := []string{"repro/fixture/globalmut"}
	// The bad noalloc fixture additionally requires a kernel that does not
	// exist ("missing") and one that exists unannotated ("unmarked").
	naBadCfg := NoAllocConfig{Require: map[string][]string{
		"repro/fixture/noalloc": {"hot", "unmarked", "missing"},
	}}
	naCleanCfg := NoAllocConfig{Require: map[string][]string{
		"repro/fixture/noalloc": {"hot"},
	}}
	cases := []struct {
		dir        string
		importPath string
		analyzer   *Analyzer
	}{
		{"determinism/bad", "repro/internal/sim", Determinism(DefaultDeterminismScope)},
		{"determinism/clean", "repro/internal/sim", Determinism(DefaultDeterminismScope)},
		{"genbump/bad", "repro/internal/cluster", GenBump(DefaultGenBumpConfig)},
		{"genbump/clean", "repro/internal/cluster", GenBump(DefaultGenBumpConfig)},
		{"exhaustive/bad", "repro/fixture/exhaustive", Exhaustive(DefaultEnums)},
		{"exhaustive/clean", "repro/fixture/exhaustive", Exhaustive(DefaultEnums)},
		{"floatcmp/bad", "repro/internal/costmodel", FloatCmp(DefaultFloatCmpScope, DefaultApprovedComparators)},
		{"floatcmp/clean", "repro/internal/costmodel", FloatCmp(DefaultFloatCmpScope, DefaultApprovedComparators)},
		{"refparity/bad", "repro/fixture/refparity", RefParity(refCfg)},
		{"refparity/clean", "repro/fixture/refparity", RefParity(refCfg)},
		{"refparity/unswitched", "repro/fixture/refparity", RefParity(refCfg)},
		{"globalmut/bad", "repro/fixture/globalmut", GlobalMut(gmScope)},
		{"globalmut/clean", "repro/fixture/globalmut", GlobalMut(gmScope)},
		{"sharedwrite/bad", "repro/internal/sweep", SharedWrite(DefaultSharedWriteScope)},
		{"sharedwrite/clean", "repro/internal/sweep", SharedWrite(DefaultSharedWriteScope)},
		{"noalloc/bad", "repro/fixture/noalloc", NoAlloc(naBadCfg)},
		{"noalloc/clean", "repro/fixture/noalloc", NoAlloc(naCleanCfg)},
		// The suppress fixtures run a real analyzer (determinism) so the
		// driver's directive handling is exercised end to end.
		{"suppress/bad", "repro/internal/sim", Determinism(DefaultDeterminismScope)},
		{"suppress/clean", "repro/internal/sim", Determinism(DefaultDeterminismScope)},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.dir, "/", "_"), func(t *testing.T) {
			runFixture(t, tc.dir, tc.importPath, tc.analyzer)
		})
	}
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`^//\s*want(?:\+(\d+))?\s+(.+?)\s*$`)

// collectWants scans the fixture's comments for expectations, keyed by
// "filename:line".
func collectWants(t *testing.T, pkg *Package) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	for _, f := range append(append([]*ast.File(nil), pkg.Files...), pkg.TestFiles...) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				offset := 0
				if m[1] != "" {
					offset, _ = strconv.Atoi(m[1])
				}
				lit, err := strconv.Unquote(m[2])
				if err != nil {
					t.Fatalf("bad want literal %s: %v", m[2], err)
				}
				re, err := regexp.Compile(lit)
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", lit, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line+offset)
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}
	return wants
}

func runFixture(t *testing.T, dir, importPath string, a *Analyzer) {
	t.Helper()
	pkg, err := loadDir(filepath.Join("testdata", dir), importPath)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, _ := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", key, w.re)
			}
		}
	}
}
