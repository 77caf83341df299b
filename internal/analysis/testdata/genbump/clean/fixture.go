// Package cluster poses as repro/internal/cluster; every mutation here
// follows the generation discipline and must produce no diagnostics.
package cluster

// State mirrors the guarded fields of the real cluster.State.
type State struct {
	free     int
	busyBits []uint64
	leafBusy []int
	allocs   map[int64]bool
	gen      uint64
}

// New constructs a State: writes to a locally-built value are exempt
// (nothing can hold a stale cache over a state that did not exist).
func New(leaves int) *State {
	s := &State{allocs: make(map[int64]bool)}
	s.leafBusy = make([]int, leaves)
	s.free = 4 * leaves
	return s
}

// Release mutates guarded state and bumps the counter on the same State.
func (s *State) Release(id int64) {
	delete(s.allocs, id)
	s.busyBits[id>>6] &^= 1 << (id & 63)
	s.free++
	s.gen++
}

// Busy only reads guarded state.
func (s *State) Busy(l int) int {
	return s.leafBusy[l]
}
