package supptest

import "testing"

// TestFlipSuppressed sets the mode; the same-line directive in this
// _test.go file must silence the probe's finding.
func TestFlipSuppressed(t *testing.T) {
	SetMode(true) //lint:allow probe fixture: exercises test-file directives
	if !Mode() {
		t.Fatal("mode not set")
	}
	SetMode(false)
}

// TestStaleDirective clears the mode, which the probe does not report, so
// its directive matches no finding: stale directives in test files must be
// flagged exactly like production ones.
func TestStaleDirective(t *testing.T) {
	SetMode(false) //lint:allow probe fixture: stale, nothing is reported here
	if Mode() {
		t.Fatal("mode set")
	}
}
