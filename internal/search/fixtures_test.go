package search

// Fixtures shared by anneal_test.go: a loaded cluster state and candidate
// lists on it.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/topology"
)

// testState builds a three-level tree with uneven background load: some
// leaves carry resident compute jobs, others a resident comm-intensive
// job, so contention counters and shares are non-trivial.
func testState(t testing.TB, nodesPerLeaf int, fanouts ...int) *cluster.State {
	t.Helper()
	topo, err := topology.Generate(topology.Spec{NodesPerLeaf: nodesPerLeaf, Fanouts: fanouts})
	if err != nil {
		t.Fatal(err)
	}
	st := cluster.New(topo)
	var compute, comm []int
	for l := 0; l < topo.NumLeaves(); l++ {
		ids := topo.LeafNodes(l)
		switch l % 3 {
		case 0:
			compute = append(compute, ids[0])
		case 1:
			comm = append(comm, ids[0], ids[1])
		}
	}
	if len(compute) > 0 {
		if err := st.Allocate(900001, cluster.ComputeIntensive, compute); err != nil {
			t.Fatal(err)
		}
	}
	if len(comm) > 0 {
		if err := st.Allocate(900002, cluster.CommIntensive, comm); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// freeNodes returns every free node id in ascending order.
func freeNodes(st *cluster.State) []int {
	var out []int
	for id := 0; id < st.Topology().NumNodes(); id++ {
		if st.NodeFree(id) {
			out = append(out, id)
		}
	}
	return out
}

// spreadCandidate picks n free nodes striding across the machine so the
// candidate touches many leaves.
func spreadCandidate(t testing.TB, st *cluster.State, n int) []int {
	t.Helper()
	free := freeNodes(st)
	if len(free) < n {
		t.Fatalf("want %d free nodes, have %d", n, len(free))
	}
	stride := len(free) / n
	if stride == 0 {
		stride = 1
	}
	out := make([]int, 0, n)
	for i := 0; len(out) < n; i += stride {
		out = append(out, free[i%len(free)])
	}
	return out
}
