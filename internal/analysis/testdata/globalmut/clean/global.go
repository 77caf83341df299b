// Clean global-state discipline: one explained write site and read-only
// accessors.
package globalmut

import "sync/atomic"

var mode atomic.Bool

// SetMode flips the package's process-global mode; the explained
// suppression makes it the single sanctioned write site.
func SetMode(on bool) { mode.Store(on) } //lint:allow globalmut start-up configuration, written once before any reader runs

// Mode reports the current mode.
func Mode() bool { return mode.Load() }
