package core

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// churnState builds a state with seeded random churn applied: some jobs
// allocated, some nodes failed (victims killed), some drained. Returns
// the state; callers inspect availability through the State accessors.
func churnState(t *testing.T, topo *topology.Topology, seed int64) *cluster.State {
	t.Helper()
	st := cluster.New(topo)
	rng := randNew(seed)
	next := cluster.JobID(1)
	for step := 0; step < 200; step++ {
		switch rng.Intn(5) {
		case 0, 1: // allocate a small job wherever nodes are free
			n := 1 + rng.Intn(4)
			var nodes []int
			for id := 0; id < topo.NumNodes() && len(nodes) < n; id++ {
				if st.NodeFree(id) {
					nodes = append(nodes, id)
				}
			}
			if len(nodes) == n {
				class := cluster.ComputeIntensive
				if rng.Intn(2) == 0 {
					class = cluster.CommIntensive
				}
				if err := st.Allocate(next, class, nodes); err != nil {
					t.Fatal(err)
				}
				next++
			}
		case 2: // fail a node, killing its job
			victim, err := st.Fail(rng.Intn(topo.NumNodes()))
			if err != nil {
				t.Fatal(err)
			}
			if victim >= 0 {
				if err := st.Release(victim); err != nil {
					t.Fatal(err)
				}
			}
		case 3: // drain a node (running job keeps it)
			if err := st.Drain(rng.Intn(topo.NumNodes())); err != nil {
				t.Fatal(err)
			}
		case 4: // repair a node when possible
			id := rng.Intn(topo.NumNodes())
			if st.NodeFailed(id) && st.NodeJob(id) >= 0 {
				continue // failed-but-allocated cannot occur; guard anyway
			}
			if err := st.Repair(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSelectorsSkipUnavailableNodes drives every selector over churned
// states full of failed, drained and busy nodes: a returned node must
// always be free (never down, never failed, never allocated), and the
// selection must commit cleanly.
func TestSelectorsSkipUnavailableNodes(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{6}})
	for _, alg := range Algorithms {
		sel := MustNew(alg)
		for seed := int64(1); seed <= 8; seed++ {
			st := churnState(t, topo, seed)
			for _, n := range []int{1, 2, 4, 7} {
				req := Request{Job: 999000 + cluster.JobID(n), Nodes: n,
					Class: cluster.CommIntensive, Pattern: collective.RD}
				nodes, err := sel.Select(st, req)
				if errors.Is(err, ErrInsufficientNodes) {
					continue // churn can legitimately exhaust capacity
				}
				if err != nil {
					t.Fatalf("%v seed %d n=%d: %v", alg, seed, n, err)
				}
				for _, id := range nodes {
					if !st.NodeFree(id) || st.NodeDown(id) || st.NodeFailed(id) {
						t.Fatalf("%v seed %d: selected unavailable node %d (free=%v down=%v failed=%v)",
							alg, seed, id, st.NodeFree(id), st.NodeDown(id), st.NodeFailed(id))
					}
				}
				probe := st.Clone()
				if err := probe.Allocate(req.Job, req.Class, nodes); err != nil {
					t.Fatalf("%v seed %d: selection does not commit: %v", alg, seed, err)
				}
				if err := probe.CheckInvariants(); err != nil {
					t.Fatalf("%v seed %d: post-commit invariants: %v", alg, seed, err)
				}
			}
		}
	}
}

// TestSelectorsRefParityUnderFaults proves the optimized and reference
// paths pick bit-identical nodes on states full of failed and drained
// capacity — the selector-level slice of the fault acceptance bar.
func TestSelectorsRefParityUnderFaults(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 4, Fanouts: []int{4, 2}})
	for _, alg := range Algorithms {
		sel := MustNew(alg)
		for seed := int64(1); seed <= 6; seed++ {
			st := churnState(t, topo, seed)
			for _, class := range []cluster.Class{cluster.ComputeIntensive, cluster.CommIntensive} {
				req := Request{Job: 999999, Nodes: 3, Class: class, Pattern: collective.RHVD}
				fast, fastErr := sel.Select(st, req)
				ref, refErr := sel.Select(st.CloneAs(true), req)

				if (fastErr == nil) != (refErr == nil) {
					t.Fatalf("%v seed %d %v: fast err %v, ref err %v", alg, seed, class, fastErr, refErr)
				}
				if fastErr != nil {
					continue
				}
				if len(fast) != len(ref) {
					t.Fatalf("%v seed %d %v: fast %v vs ref %v", alg, seed, class, fast, ref)
				}
				for i := range fast {
					if fast[i] != ref[i] {
						t.Fatalf("%v seed %d %v: rank %d differs: fast %v vs ref %v",
							alg, seed, class, i, fast, ref)
					}
				}
			}
		}
	}
}
