//go:build race

package sim

// raceEnabled lets allocation-pinning tests skip under the race detector,
// whose instrumentation adds heap allocations of its own.
const raceEnabled = true
