package analysis

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuppressMultiAnalyzerLine proves the driver applies directives per
// analyzer when a single line carries findings from two of them: the
// fixture's return line trips determinism and floatcmp at once, with one
// directive on the line above and one on the line itself. Zero surviving
// diagnostics is the strong assertion — a directive that failed to match
// its finding would surface either as the raw finding or as a
// stale-suppression report from the driver.
func TestSuppressMultiAnalyzerLine(t *testing.T) {
	pkg, err := loadDir(filepath.Join("testdata", "suppress", "multi"), "repro/internal/sim")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, _ := RunAnalyzers([]*Package{pkg}, []*Analyzer{
		Determinism(DefaultDeterminismScope),
		FloatCmp(DefaultFloatCmpScope, DefaultApprovedComparators),
	})
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}

	// The inventory must list both directives with their reasons, sorted
	// by position (the determinism directive sits on the earlier line).
	sups := Suppressions([]*Package{pkg})
	if len(sups) != 2 {
		t.Fatalf("Suppressions inventory: got %d entries, want 2: %v", len(sups), sups)
	}
	if sups[0].Analyzer != "determinism" || sups[1].Analyzer != "floatcmp" {
		t.Errorf("inventory order: got %s then %s, want determinism then floatcmp (position sort)",
			sups[0].Analyzer, sups[1].Analyzer)
	}
	for _, s := range sups {
		if s.Reason == "" {
			t.Errorf("%s: inventory lost the reason for the %s directive", s.Pos, s.Analyzer)
		}
	}
}

// TestSuppressDirectivesInTestFiles covers directives living in _test.go
// files: one silences a real test-file finding, and one is stale because
// its line has none. The only surviving diagnostic must be the
// stale-directive report, positioned inside the test file. No analyzer of
// the suite reads test files at present, so a probe that reports every
// SetMode(true) call in one stands in.
func TestSuppressDirectivesInTestFiles(t *testing.T) {
	probe := &Analyzer{Name: "probe", Doc: "reports SetMode(true) calls in test files"}
	probe.Run = func(pass *Pass) {
		for _, f := range pass.TestFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && calleeName(call) == "SetMode" {
					if arg, ok := call.Args[0].(*ast.Ident); ok && arg.Name == "true" {
						pass.Reportf(call.Pos(), "test sets the mode")
					}
				}
				return true
			})
		}
	}
	pkg, err := loadDir(filepath.Join("testdata", "suppress", "testfile"), "repro/fixture/supptest")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, _ := RunAnalyzers([]*Package{pkg}, []*Analyzer{probe})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the stale test-file directive: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != SuppressName {
		t.Errorf("diagnostic analyzer = %q, want %q", d.Analyzer, SuppressName)
	}
	if !strings.Contains(d.Message, "matches no finding") {
		t.Errorf("diagnostic %q, want a stale-directive report", d.Message)
	}
	if !strings.HasSuffix(d.Pos.Filename, "_test.go") {
		t.Errorf("stale directive reported at %s, want a _test.go position", d.Pos.Filename)
	}
}
