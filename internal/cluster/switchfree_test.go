package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// TestSwitchFreeMatchesSlowUnderChurn drives random allocate / release /
// drain / resume churn and checks, after every mutation, that the O(1)
// switchFree counters agree with the reference recount on every switch and
// that the generation counter advanced.
func TestSwitchFreeMatchesSlowUnderChurn(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 6, Fanouts: []int{4, 3}})
	st := New(topo)
	rng := rand.New(rand.NewSource(7))
	var running []JobID
	next := JobID(1)
	check := func(op string) {
		t.Helper()
		for _, sw := range topo.Switches {
			if got, want := st.SwitchFree(sw), st.SwitchFreeSlow(sw); got != want {
				t.Fatalf("%s: switch %s free = %d, reference recount %d", op, sw.Name, got, want)
			}
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	check("init")
	for i := 0; i < 400; i++ {
		before := st.Generation()
		switch op := rng.Intn(4); {
		case op == 0 && st.FreeTotal() > 0: // allocate
			want := 1 + rng.Intn(st.FreeTotal())
			var nodes []int
			for id := 0; id < topo.NumNodes() && len(nodes) < want; id++ {
				if st.NodeFree(id) {
					nodes = append(nodes, id)
				}
			}
			class := Class(rng.Intn(2))
			if err := st.Allocate(next, class, nodes); err != nil {
				t.Fatal(err)
			}
			running = append(running, next)
			next++
			if st.Generation() == before {
				t.Fatal("allocate did not advance the generation")
			}
			check("allocate")
		case op == 1 && len(running) > 0: // release
			k := rng.Intn(len(running))
			if err := st.Release(running[k]); err != nil {
				t.Fatal(err)
			}
			running = append(running[:k], running[k+1:]...)
			if st.Generation() == before {
				t.Fatal("release did not advance the generation")
			}
			check("release")
		case op == 2: // drain
			id := rng.Intn(topo.NumNodes())
			wasDown := st.NodeDown(id)
			if err := st.Drain(id); err != nil {
				t.Fatal(err)
			}
			// Draining an already-drained node is a documented no-op and
			// must not invalidate caches.
			if !wasDown && st.Generation() == before {
				t.Fatal("drain did not advance the generation")
			}
			check("drain")
		default: // resume
			id := rng.Intn(topo.NumNodes())
			wasDown := st.NodeDown(id)
			if err := st.Resume(id); err != nil {
				t.Fatal(err)
			}
			if wasDown && st.Generation() == before {
				t.Fatal("resume did not advance the generation")
			}
			check("resume")
		}
	}
}

// TestSwitchFreeReferenceMode pins the mode a state is built with: an
// optimized state and its reference clone agree on a state with allocations
// in flight, and only the reference one recounts: a counter knocked out of
// step shows through the optimized read alone.
func TestSwitchFreeReferenceMode(t *testing.T) {
	topo := topology.PaperExample()
	st := New(topo)
	if err := st.Allocate(1, CommIntensive, []int{0, 1, 4}); err != nil {
		t.Fatal(err)
	}
	ref := st.CloneAs(true)
	if st.Reference() || !ref.Reference() || !NewReference(topo).Reference() {
		t.Fatal("Reference() does not report the mode the state was built with")
	}
	for _, sw := range topo.Switches {
		if fast, slow := st.SwitchFree(sw), ref.SwitchFree(sw); fast != slow {
			t.Errorf("switch %s: fast %d, reference %d", sw.Name, fast, slow)
		}
	}
	root := topo.Switches[len(topo.Switches)-1]
	for _, s := range []*State{st, ref} {
		s.switchFree[root.Index]++
		if got, want := s.SwitchFree(root) != s.SwitchFreeSlow(root), !s.reference; got != want {
			t.Errorf("reference=%v: SwitchFree reads the maintained counter = %v", s.reference, got)
		}
	}
}

// TestCloneCarriesSwitchFree verifies clones copy the counters and diverge
// independently afterwards.
func TestCloneCarriesSwitchFree(t *testing.T) {
	topo := topology.PaperExample()
	st := New(topo)
	if err := st.Allocate(1, ComputeIntensive, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	c := st.Clone()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(2, ComputeIntensive, []int{4, 5}); err != nil {
		t.Fatal(err)
	}
	root := topo.Switches[len(topo.Switches)-1]
	if st.SwitchFree(root) == c.SwitchFree(root) {
		t.Error("clone's counters track the original")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
