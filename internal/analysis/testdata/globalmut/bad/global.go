// Bad global-state discipline: unannotated writes to package-level state.
package globalmut

import "sync/atomic"

var mode atomic.Bool

var registry = map[string]int{}

var counter int

// SetMode flips the package's process-global mode with no explanation.
func SetMode(on bool) { mode.Store(on) } // want `Store on package-level mode outside main or a test`

func bump() {
	counter++ // want `write to package-level counter outside main or a test`
}

func assign() {
	counter = 7 // want `write to package-level counter outside main or a test`
}

func drop(k string) {
	delete(registry, k) // want `delete from package-level registry outside main or a test`
}
