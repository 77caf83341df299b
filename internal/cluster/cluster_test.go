package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func newFig2(t *testing.T) *State {
	t.Helper()
	return New(topology.PaperExample())
}

func TestAllocateRelease(t *testing.T) {
	s := newFig2(t)
	if s.FreeTotal() != 8 {
		t.Fatalf("FreeTotal = %d, want 8", s.FreeTotal())
	}
	if err := s.Allocate(1, CommIntensive, []int{0, 1, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Allocate(2, CommIntensive, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if s.FreeTotal() != 2 {
		t.Fatalf("FreeTotal = %d, want 2", s.FreeTotal())
	}
	if got := s.LeafBusy(0); got != 4 {
		t.Errorf("LeafBusy(0) = %d, want 4", got)
	}
	if got := s.LeafComm(0); got != 4 {
		t.Errorf("LeafComm(0) = %d, want 4", got)
	}
	if got := s.LeafBusy(1); got != 2 {
		t.Errorf("LeafBusy(1) = %d, want 2", got)
	}
	if got := s.LeafFree(1); got != 2 {
		t.Errorf("LeafFree(1) = %d, want 2", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(1); err != nil {
		t.Fatal(err)
	}
	if s.FreeTotal() != 6 {
		t.Fatalf("after release FreeTotal = %d, want 6", s.FreeTotal())
	}
	if got := s.LeafComm(1); got != 0 {
		t.Errorf("LeafComm(1) = %d, want 0", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateErrors(t *testing.T) {
	s := newFig2(t)
	if err := s.Allocate(1, ComputeIntensive, nil); err == nil {
		t.Error("empty allocation accepted")
	}
	if err := s.Allocate(1, ComputeIntensive, []int{0, 0}); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := s.Allocate(1, ComputeIntensive, []int{-1}); err == nil {
		t.Error("negative node accepted")
	}
	if err := s.Allocate(1, ComputeIntensive, []int{99}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := s.Allocate(1, ComputeIntensive, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Allocate(1, ComputeIntensive, []int{1}); err == nil {
		t.Error("double allocation for same job accepted")
	}
	if err := s.Allocate(2, ComputeIntensive, []int{0}); err == nil {
		t.Error("busy node re-allocated")
	}
	if err := s.Release(42); err == nil {
		t.Error("release of unknown job accepted")
	}
}

func TestCommRatioEq1(t *testing.T) {
	s := newFig2(t)
	// Idle leaf: ratio 0 (documented choice for L_busy = 0).
	if got := s.CommRatio(0); got != 0 {
		t.Fatalf("idle CommRatio = %v, want 0", got)
	}
	// 2 comm nodes of 3 busy on a 4-node leaf: 2/3 + 3/4.
	if err := s.Allocate(1, CommIntensive, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Allocate(2, ComputeIntensive, []int{2}); err != nil {
		t.Fatal(err)
	}
	want := 2.0/3.0 + 3.0/4.0
	if got := s.CommRatio(0); !close(got, want) {
		t.Fatalf("CommRatio = %v, want %v", got, want)
	}
	// CommShare = L_comm / L_nodes = 2/4.
	if got := s.CommShare(0); !close(got, 0.5) {
		t.Fatalf("CommShare = %v, want 0.5", got)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

// freeOnLeaf lists the allocatable nodes on leaf l, ascending: the clear
// bits of busy|down, word by word, as the allocator reads them.
func freeOnLeaf(s *State, l int) []int {
	return s.appendRanks(nil, l, 0, s.topo.LeafSize(l))
}

func TestFreeOnLeaf(t *testing.T) {
	s := newFig2(t)
	if err := s.Allocate(1, CommIntensive, []int{1, 3}); err != nil {
		t.Fatal(err)
	}
	got := freeOnLeaf(s, 0)
	want := []int{0, 2}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("FreeOnLeaf(0) = %v, want %v", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := newFig2(t)
	if err := s.Allocate(1, CommIntensive, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if err := c.Allocate(2, ComputeIntensive, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if s.FreeTotal() != 6 {
		t.Fatalf("clone mutation leaked: original free = %d, want 6", s.FreeTotal())
	}
	if c.FreeTotal() != 4 {
		t.Fatalf("clone free = %d, want 4", c.FreeTotal())
	}
	if err := s.Release(1); err != nil {
		t.Fatal(err)
	}
	if c.Allocation(1) == nil {
		t.Fatal("release on original removed clone's allocation")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The mode is part of what a clone copies: a reference state's clone on
	// the fast paths would make every reference-equivalence run vacuous.
	ref := c.CloneAs(true)
	if c.Reference() || c.Clone().Reference() || !ref.Reference() || !ref.Clone().Reference() || ref.CloneAs(false).Reference() {
		t.Fatal("Clone does not keep the state's mode, or CloneAs does not set it")
	}
	if err := sameState(ref, c.Clone()); err != nil {
		t.Fatalf("CloneAs(true) differs from its original beyond the mode: %v", err)
	}
}

// Property test: a random sequence of allocations and releases always
// preserves the state invariants, and counters return to zero after all
// jobs are released.
func TestRandomChurnInvariants(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{4}})
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(topo)
		live := make([]JobID, 0)
		next := JobID(1)
		ops := int(opsRaw%100) + 20
		for op := 0; op < ops; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				if err := s.Release(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			want := 1 + rng.Intn(6)
			if want > s.FreeTotal() {
				continue
			}
			var nodes []int
			for id := 0; id < topo.NumNodes() && len(nodes) < want; id++ {
				if s.NodeFree(id) && rng.Intn(2) == 0 {
					nodes = append(nodes, id)
				}
			}
			if len(nodes) == 0 {
				continue
			}
			class := ComputeIntensive
			if rng.Intn(2) == 0 {
				class = CommIntensive
			}
			if err := s.Allocate(next, class, nodes); err != nil {
				return false
			}
			live = append(live, next)
			next++
			if s.CheckInvariants() != nil {
				return false
			}
		}
		for _, id := range live {
			if err := s.Release(id); err != nil {
				return false
			}
		}
		if s.FreeTotal() != topo.NumNodes() || len(s.allocs) != 0 {
			return false
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	if CommIntensive.String() != "comm" || ComputeIntensive.String() != "compute" {
		t.Fatal("Class.String mismatch")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class should still stringify")
	}
}

func BenchmarkAllocateRelease512(b *testing.B) {
	topo := topology.Theta()
	s := New(topo)
	nodes := make([]int, 512)
	for i := range nodes {
		nodes[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Allocate(JobID(i), CommIntensive, nodes); err != nil {
			b.Fatal(err)
		}
		if err := s.Release(JobID(i)); err != nil {
			b.Fatal(err)
		}
	}
}
