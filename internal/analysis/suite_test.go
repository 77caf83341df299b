package analysis

import "testing"

// TestSuiteCleanOnTree proves the production tree carries zero cawslint
// diagnostics: the same gate `make lint`, `make check` and CI enforce,
// here under plain `go test ./...` so it cannot be skipped. A failure
// means a change reintroduced a forbidden construct (or added an
// unexplained/stale suppression) and must be fixed or suppressed with an
// explained //lint:allow before merging.
func TestSuiteCleanOnTree(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, _ := RunAnalyzers(pkgs, Suite())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
