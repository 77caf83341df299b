// Package cluster poses as repro/internal/cluster: genbump matches the
// guarded struct nominally by package path and type name, so this State
// stands in for the real one.
package cluster

// State mirrors the guarded fields of the real cluster.State.
type State struct {
	free     int
	busyBits []uint64
	leafBusy []int
	allocs   map[int64]bool
	gen      uint64
}

// Evict mutates two guarded fields and never bumps gen; the analyzer
// reports once per State variable per function, at the first write.
func (s *State) Evict(id int64) {
	delete(s.allocs, id) // want `Evict writes State\.allocs without bumping gen`
	s.free++
}

// MarkBusy writes through an index expression without a bump.
func (s *State) MarkBusy(l int) {
	s.leafBusy[l]++ // want `MarkBusy writes State\.leafBusy without bumping gen`
}

// Hold sets a node's bit in a bitmap without a bump: the write that, since
// ownership moved into the allocations' masks, is all that marks a node busy.
func (s *State) Hold(bit int) {
	s.busyBits[bit>>6] |= 1 << (bit & 63) // want `Hold writes State\.busyBits without bumping gen`
}
