// Package refparity models a package whose equivalence contract has
// rotted: an unguarded fast-path consumer, an orphaned reference
// counterpart, and a branch on something that merely shares the flag's
// name.
package refparity

// State mirrors cluster.State: its mode is fixed when it is built, and
// cache is the configured fast-path state for this fixture.
type State struct {
	reference bool
	cache     map[int]int
}

// Reference reports the mode.
func (s *State) Reference() bool { return s.reference }

// Guarded is the one healthy consumer, so the package still has a switch.
func (s *State) Guarded(k int) int {
	if s.reference {
		return guardedSlow(k)
	}
	return s.cache[k]
}

// Lookup reads fast-path state with no guard and no counterpart call.
func (s *State) Lookup(k int) int { // want `Lookup consumes fast-path state but neither reads the reference flag nor calls a \*Slow/\*Ref counterpart`
	return s.cache[k]
}

// Shadow branches on a parameter named like the flag: that is the caller's
// word, not the state's mode, so no reference state reaches shadowRef.
func Shadow(s *State, k int, reference bool) int {
	if reference {
		return shadowRef(k)
	}
	return s.cache[k]
}

func guardedSlow(k int) int { return k }

// lookupSlow exists but nothing guarded ever calls it.
func lookupSlow(k int) int { // want `reference counterpart lookupSlow is never called from a reference-guarded branch`
	return k
}

func shadowRef(k int) int { // want `reference counterpart shadowRef is never called from a reference-guarded branch`
	return k
}
