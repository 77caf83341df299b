// Package refparity models a healthy opt/ref package: the fast-path
// consumers branch on the state's reference flag, the counterparts are
// reachable from the guarded branches, and cache maintenance writes are
// not consumption.
package refparity

// State mirrors cluster.State: its mode is fixed when it is built, and
// cache is the configured fast-path state for this fixture.
type State struct {
	reference bool
	cache     map[int]int
}

// New builds a state of the given mode. Naming the field in a literal is
// not a read of the flag, and a function handing back the whole state is
// not answering a query from cached state.
func New(reference bool) *State {
	return &State{reference: reference, cache: map[int]int{}}
}

// Reference reports the mode.
func (s *State) Reference() bool { return s.reference }

// Lookup branches on the flag and falls back to the counterpart, keeping
// the opt/ref diff total.
func (s *State) Lookup(k int) int {
	if s.reference {
		return lookupSlow(k)
	}
	return s.cache[k]
}

// Peek reads the flag through the accessor, as a package pricing another
// package's state does.
func Peek(s *State, k int) int {
	if !s.Reference() {
		return s.cache[k]
	} else {
		return peekRef(k)
	}
}

// Store maintains the cache: writes are the shared bookkeeping both
// modes perform, not fast-path consumption.
func (s *State) Store(k, v int) {
	s.cache[k] = v
}

func lookupSlow(k int) int { return k }

func peekRef(k int) int { return k }
