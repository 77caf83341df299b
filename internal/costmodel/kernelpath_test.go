package costmodel

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// TestKernelPathLargeTopology is the regression test for the silent
// fallback: topologies past 128 leaves used to get no layout and dropped
// invisibly onto the reference loop. The path indicator must report the
// compiled kernels at every scale, and costing a cross-machine job at that
// scale must actually succeed through them.
func TestKernelPathLargeTopology(t *testing.T) {
	for _, leaves := range []int{8, 128, 129, 512} {
		topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{leaves}})
		st := cluster.New(topo)
		if got := KernelPath(st); got != "aggregated" {
			t.Fatalf("%d leaves: KernelPath = %q, want \"aggregated\"", leaves, got)
		}
		nodes := []int{0, topo.NumNodes() - 1}
		cost, err := JobCost(st, nodes, collective.RD, ModeEffectiveHops)
		if err != nil {
			t.Fatalf("%d leaves: JobCost on the fast path: %v", leaves, err)
		}
		if cost == 0 {
			t.Fatalf("%d leaves: cross-machine job cost is zero", leaves)
		}
	}
}

// TestKernelPathReferenceMode pins the other half of the indicator: a
// reference state — whatever its size — reports the reference path.
func TestKernelPathReferenceMode(t *testing.T) {
	for _, leaves := range []int{8, 512} {
		topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{leaves}})
		if got := KernelPath(cluster.NewReference(topo)); got != "reference" {
			t.Fatalf("%d leaves: KernelPath of a reference state = %q, want \"reference\"", leaves, got)
		}
	}
}

// TestReferenceModeAccessors pins what the harness and the path indicator
// read off a state: the mode it was built with, and with it whether
// candidate costing is a pure read.
func TestReferenceModeAccessors(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{4}})
	st := cluster.New(topo)
	if st.Reference() || !CandidateCostReadOnly(st) {
		t.Fatal("candidate costing not read-only on an optimized state")
	}
	ref := st.CloneAs(true)
	if !ref.Reference() || CandidateCostReadOnly(ref) || KernelPath(ref) != "reference" {
		t.Fatal("a reference clone is not reflected by the accessors")
	}
	if st.Reference() || KernelPath(st) != "aggregated" {
		t.Fatal("cloning as a reference state changed the original's mode")
	}
}
