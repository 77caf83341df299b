package cluster

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

// TestCheckInvariantsDeterministicError pins the determinism fix in
// CheckInvariants (flagged by cawslint): with several allocations
// corrupted at once, the reported violation must be the same on every
// call — the lowest job ID — not whichever entry the allocation map
// happens to yield first.
func TestCheckInvariantsDeterministicError(t *testing.T) {
	s := New(topology.PaperExample())
	if err := s.Allocate(1, ComputeIntensive, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Allocate(2, ComputeIntensive, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Allocate(3, ComputeIntensive, []int{4, 5}); err != nil {
		t.Fatal(err)
	}
	// Each allocation now lies about holding an extra node, so every job
	// violates the ownership invariant simultaneously.
	for _, id := range []JobID{1, 2, 3} {
		s.allocs[id].size++
	}
	first := s.CheckInvariants()
	if first == nil {
		t.Fatal("corrupted state passed CheckInvariants")
	}
	if !strings.Contains(first.Error(), "job 1 ") {
		t.Fatalf("first violation should name the lowest job ID: %v", first)
	}
	for i := 0; i < 100; i++ {
		if err := s.CheckInvariants(); err == nil || err.Error() != first.Error() {
			t.Fatalf("iteration %d: error changed from %q to %v", i, first, err)
		}
	}
}
