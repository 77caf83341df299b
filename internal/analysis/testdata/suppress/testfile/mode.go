// Package supptest poses as repro/fixture/supptest; its test is run under a
// probe analyzer that reports SetMode(true) calls in test files. The
// interesting directives live in mode_test.go: suppressions in _test.go
// files must both act (silencing a test-file finding) and be audited (a
// stale test-file directive is flagged like a production one).
package supptest

import "sync/atomic"

var mode atomic.Bool

// SetMode sets the fixture's mode.
func SetMode(on bool) { mode.Store(on) }

// Mode reads it.
func Mode() bool { return mode.Load() }
