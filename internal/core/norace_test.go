//go:build !race

package core

// raceEnabled lets allocation-pinning tests skip under the race detector,
// under which sync.Pool drops pooled scratches at random.
const raceEnabled = false
