// Package refparity models a package that kept its fast path and lost its
// switch: the flag is still declared and reported, but nothing branches on
// it, so no run can take a reference implementation.
package refparity // want `package has configured fast-path state but never branches on the state's reference flag`

// State carries a mode nobody consults.
type State struct {
	reference bool
	cache     map[int]int
}

// Reference reports the mode.
func (s *State) Reference() bool { return s.reference }

// Lookup always reads the cache.
func (s *State) Lookup(k int) int { return s.cache[k] }
