package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestDrainFreeNode(t *testing.T) {
	s := New(topology.PaperExample())
	if err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	if s.FreeTotal() != 7 {
		t.Fatalf("free = %d, want 7", s.FreeTotal())
	}
	if s.NodeFree(0) {
		t.Fatal("drained node still allocatable")
	}
	if !s.NodeDown(0) {
		t.Fatal("NodeDown false after drain")
	}
	if got := s.LeafFree(0); got != 3 {
		t.Fatalf("LeafFree(0) = %d, want 3", got)
	}
	if got := s.leafUnavail[0]; got != 1 {
		t.Fatalf("LeafUnavail(0) = %d, want 1", got)
	}
	// Allocating the drained node is rejected.
	if err := s.Allocate(1, ComputeIntensive, []int{0}); err == nil {
		t.Fatal("allocated a drained node")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Double drain is a no-op.
	if err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	if s.FreeTotal() != 7 {
		t.Fatal("double drain changed counts")
	}
	// Resume restores.
	if err := s.Resume(0); err != nil {
		t.Fatal(err)
	}
	if s.FreeTotal() != 8 || !s.NodeFree(0) {
		t.Fatal("resume did not restore the node")
	}
	if err := s.Resume(0); err != nil {
		t.Fatal(err)
	}
	if s.FreeTotal() != 8 {
		t.Fatal("double resume changed counts")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainBusyNodeTakesEffectOnRelease(t *testing.T) {
	s := New(topology.PaperExample())
	if err := s.Allocate(1, CommIntensive, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	// Busy node: free total unchanged by the drain.
	if s.FreeTotal() != 6 {
		t.Fatalf("free = %d, want 6", s.FreeTotal())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(1); err != nil {
		t.Fatal(err)
	}
	// Node 0 left service; node 1 returned.
	if s.FreeTotal() != 7 {
		t.Fatalf("free after release = %d, want 7", s.FreeTotal())
	}
	if s.NodeFree(0) || !s.NodeFree(1) {
		t.Fatal("drain-on-release semantics wrong")
	}
	if s.DownTotal() != 1 {
		t.Fatalf("DownTotal = %d, want 1", s.DownTotal())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Resume the released drained node.
	if err := s.Resume(0); err != nil {
		t.Fatal(err)
	}
	if s.FreeTotal() != 8 {
		t.Fatalf("free after resume = %d, want 8", s.FreeTotal())
	}
}

func TestDrainRangeErrors(t *testing.T) {
	s := New(topology.PaperExample())
	if err := s.Drain(-1); err == nil {
		t.Error("negative node drained")
	}
	if err := s.Drain(99); err == nil {
		t.Error("out-of-range node drained")
	}
	if err := s.Resume(99); err == nil {
		t.Error("out-of-range node resumed")
	}
}

func TestCloneCarriesNodeState(t *testing.T) {
	s := New(topology.PaperExample())
	if err := s.Drain(3); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if !c.NodeDown(3) || c.FreeTotal() != 7 {
		t.Fatal("clone lost drain state")
	}
	if err := c.Resume(3); err != nil {
		t.Fatal(err)
	}
	if !s.NodeDown(3) {
		t.Fatal("resume on clone leaked to original")
	}
}

// Failure injection: random drains/resumes interleaved with allocate and
// release keep every invariant, and resuming everything restores full
// capacity.
func TestDrainChurnInvariants(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{3}})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(topo)
		var live []JobID
		next := JobID(1)
		for op := 0; op < 120; op++ {
			switch rng.Intn(4) {
			case 0: // drain a random node
				if err := s.Drain(rng.Intn(topo.NumNodes())); err != nil {
					return false
				}
			case 1: // resume a random node
				if err := s.Resume(rng.Intn(topo.NumNodes())); err != nil {
					return false
				}
			case 2: // allocate some free nodes
				var nodes []int
				want := 1 + rng.Intn(5)
				for id := 0; id < topo.NumNodes() && len(nodes) < want; id++ {
					if s.NodeFree(id) && rng.Intn(2) == 0 {
						nodes = append(nodes, id)
					}
				}
				if len(nodes) == 0 {
					continue
				}
				if err := s.Allocate(next, CommIntensive, nodes); err != nil {
					return false
				}
				live = append(live, next)
				next++
			case 3: // release a random job
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				if err := s.Release(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if s.CheckInvariants() != nil {
				return false
			}
		}
		for _, id := range live {
			if err := s.Release(id); err != nil {
				return false
			}
		}
		for id := 0; id < topo.NumNodes(); id++ {
			if err := s.Resume(id); err != nil {
				return false
			}
		}
		return s.FreeTotal() == topo.NumNodes() && s.DownTotal() == 0 &&
			s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Selectors integrate with drained nodes through NodeFree/LeafFree; verify
// via freeOnLeaf, which shares the eligibility predicate.
func TestFreeOnLeafSkipsDrained(t *testing.T) {
	s := New(topology.PaperExample())
	if err := s.Drain(1); err != nil {
		t.Fatal(err)
	}
	got := freeOnLeaf(s, 0)
	want := []int{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("FreeOnLeaf = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FreeOnLeaf = %v, want %v", got, want)
		}
	}
}
