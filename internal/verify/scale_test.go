package verify

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/topology"
)

// scaleShapes are the leaf counts the cross-scale parity property runs at:
// both sides of 128 leaves (the paper's largest machine, and once the
// ceiling of the fast kernel), the paper's largest machine class (64), and
// machines far past the old ceiling (512, 4096) that previously fell back
// to the reference loop. Shapes mix two- and three-level trees so
// the ancestor-chain distance walk is exercised at both heights.
var scaleShapes = []struct {
	leaves int
	spec   topology.Spec
}{
	{64, topology.Spec{NodesPerLeaf: 2, Fanouts: []int{64}}},
	{127, topology.Spec{NodesPerLeaf: 2, Fanouts: []int{127}}},
	{129, topology.Spec{NodesPerLeaf: 2, Fanouts: []int{129}}},
	{512, topology.Spec{NodesPerLeaf: 2, Fanouts: []int{128, 4}}},
	{4096, topology.Spec{NodesPerLeaf: 2, Fanouts: []int{512, 8}}},
}

// scaleState builds a cluster at the given shape with resident
// communication jobs spread across distant leaves, so contention counters
// are non-trivial at every scale.
func scaleState(t *testing.T, spec topology.Spec, leaves int) *cluster.State {
	t.Helper()
	topo := topology.MustGenerate(spec)
	if topo.NumLeaves() != leaves {
		t.Fatalf("shape %+v built %d leaves, want %d", spec, topo.NumLeaves(), leaves)
	}
	st := cluster.New(topo)
	// Residents on the first, middle and last leaves plus a cross-machine
	// pair: leaf indices past 128 must carry live counters, not just exist.
	resident := [][]int{
		{topo.LeafNodes(0)[0], topo.LeafNodes(0)[1]},
		{topo.LeafNodes(leaves / 2)[0], topo.LeafNodes(leaves - 1)[0]},
		{topo.LeafNodes(leaves / 3)[0], topo.LeafNodes(2 * leaves / 3)[0]},
	}
	for i, nodes := range resident {
		if err := st.Allocate(cluster.JobID(9000+i), cluster.CommIntensive, nodes); err != nil {
			t.Fatalf("%d leaves: resident allocate: %v", leaves, err)
		}
	}
	return st
}

// scaleJobNodes picks n free nodes spread evenly across the machine's
// leaves, so schedules touch leaf pairs at the far ends of the index
// space (including pairs whose packed keys collide in small hash tables).
func scaleJobNodes(t *testing.T, st *cluster.State, n int) []int {
	t.Helper()
	topo := st.Topology()
	leaves := topo.NumLeaves()
	var nodes []int
	for k := 0; k < leaves && len(nodes) < n; k++ {
		l := (k * leaves) / n % leaves
		for _, id := range topo.LeafNodes(l) {
			if st.NodeFree(id) && !slices.Contains(nodes, id) {
				nodes = append(nodes, id)
				break
			}
		}
	}
	for id := 0; id < topo.NumNodes() && len(nodes) < n; id++ {
		if st.NodeFree(id) && !slices.Contains(nodes, id) {
			nodes = append(nodes, id)
		}
	}
	if len(nodes) < n {
		t.Fatalf("machine too small for a %d-node job", n)
	}
	return nodes
}

// TestCrossScaleParity is the tentpole property: at every scale — below,
// at, and far beyond 128 leaves — JobCost in every mode and
// CandidateCostMode evaluated through the walk are bit-identical to the
// reference node-pair loop on a reference clone of
// the same state. The >128-leaf shapes run on-demand layout distances; any
// divergence is a float64 bit mismatch with the shape in the failure
// message.
func TestCrossScaleParity(t *testing.T) {
	for _, shape := range scaleShapes {
		t.Run(fmt.Sprintf("L=%d", shape.leaves), func(t *testing.T) {
			st := scaleState(t, shape.spec, shape.leaves)
			if got := costmodel.KernelPath(st); got != "aggregated" {
				t.Fatalf("%d leaves: KernelPath = %q, want \"aggregated\"", shape.leaves, got)
			}
			if l := st.Topology().Layout().L; l != shape.leaves {
				t.Fatalf("%d leaves: layout has %d", shape.leaves, l)
			}
			live := []activeJob{
				{id: 100, nodes: scaleJobNodes(t, st, 16), pattern: collective.RD},
				{id: 101, nodes: scaleJobNodes(t, st, 10), pattern: collective.Ring},
				{id: 102, nodes: scaleJobNodes(t, st, 8), pattern: collective.Binomial},
			}
			// The jobs are costed unallocated (parity holds either way);
			// checkFastRefBitIdentical also prices a synthetic candidate
			// through the overlay and the allocate/rollback reference path.
			checkFastRefBitIdentical(t, new(costmodel.Scratch), st, live, fmt.Sprintf("scale L=%d", shape.leaves), 0)

			// The property must not be vacuous: with residents on both end
			// leaves the cross-machine jobs see real contention.
			cost, err := costmodel.JobCost(st, live[0].nodes, collective.RD, costmodel.ModeEffectiveHops)
			if err != nil {
				t.Fatal(err)
			}
			if cost == 0 {
				t.Fatalf("%d leaves: cross-machine job cost is zero; parity is vacuous", shape.leaves)
			}
		})
	}
}

// TestCrossScaleWideJobParity extends the cross-scale property to wide
// placements: at every scale from 64 to 4096 leaves, jobs touching half the
// leaves (at most 1024) must be priced bit for bit as the node-pair
// reference loop prices them. The resident jobs make the leaves' contention
// differ (extra comm on the first/middle/last leaves), and the alltoall
// pattern supplies the quadratic leaf-pair structure.
func TestCrossScaleWideJobParity(t *testing.T) {
	for _, shape := range scaleShapes {
		t.Run(fmt.Sprintf("L=%d", shape.leaves), func(t *testing.T) {
			st := scaleState(t, shape.spec, shape.leaves)
			wide := scaleJobNodes(t, st, min(shape.leaves/2, 1024))
			live := []activeJob{
				{id: 300, nodes: wide, pattern: collective.Alltoall},
				{id: 301, nodes: wide, pattern: collective.RD},
				{id: 302, nodes: wide, pattern: collective.Ring},
			}
			// Non-vacuity: the wide alltoall sees real contention.
			if cost, err := costmodel.JobCost(st, wide, collective.Alltoall, costmodel.ModeEffectiveHops); err != nil || cost == 0 {
				t.Fatalf("%d leaves: wide alltoall cost = %v, %v; property vacuous", shape.leaves, cost, err)
			}

			// JobCost in every mode, and candidate pricing, each run.
			checkFastRefBitIdentical(t, new(costmodel.Scratch), st, live, fmt.Sprintf("wide L=%d", shape.leaves), 0)

			// checkCandidateParity prices an 8-node candidate, so price the
			// wide node set itself through the overlay and the reference
			// rollback path.
			ref := st.CloneAs(true)
			for _, class := range []cluster.Class{cluster.CommIntensive, cluster.ComputeIntensive} {
				for _, mode := range allModes {
					const candJob = cluster.JobID(1 << 29)
					fast, err := costmodel.CandidateCostMode(st, candJob, class, wide, collective.Alltoall, mode)
					if err != nil {
						t.Fatalf("%d leaves %v %v: CandidateCostMode: %v", shape.leaves, class, mode, err)
					}
					want, err := costmodel.CandidateCostMode(ref, candJob, class, wide, collective.Alltoall, mode)
					if err != nil {
						t.Fatalf("%d leaves %v %v: reference CandidateCostMode: %v", shape.leaves, class, mode, err)
					}
					if math.Float64bits(fast) != math.Float64bits(want) {
						t.Fatalf("%d leaves %v %v: candidate cost %v, reference %v",
							shape.leaves, class, mode, fast, want)
					}
				}
			}
		})
	}
}

// TestCrossScaleAdaptiveSelect pins the adaptive selector (§4.3) across
// the threshold: the nodes it picks with the fast kernel must equal the
// nodes it picks on a reference state, on clones of the same loaded state. This is the end-to-end form of the parity
// property — selection compares candidate costs, so a single diverging
// bit can flip the allocation.
func TestCrossScaleAdaptiveSelect(t *testing.T) {
	sel := core.MustNew(core.Adaptive)
	for _, shape := range scaleShapes {
		t.Run(fmt.Sprintf("L=%d", shape.leaves), func(t *testing.T) {
			st := scaleState(t, shape.spec, shape.leaves)
			for _, req := range []core.Request{
				{Job: 200, Nodes: 16, Class: cluster.CommIntensive, Pattern: collective.RD},
				{Job: 201, Nodes: 7, Class: cluster.CommIntensive, Pattern: collective.Ring},
				{Job: 202, Nodes: 4, Class: cluster.ComputeIntensive, Pattern: collective.RD},
			} {
				fast, errFast := sel.Select(st.Clone(), req)
				ref, errRef := sel.Select(st.CloneAs(true), req)
				if (errFast == nil) != (errRef == nil) {
					t.Fatalf("%d leaves job %d: fast err %v, reference err %v",
						shape.leaves, req.Job, errFast, errRef)
				}
				if errFast != nil {
					continue
				}
				if !slices.Equal(fast, ref) {
					t.Errorf("%d leaves job %d: adaptive selected %v fast, %v reference",
						shape.leaves, req.Job, fast, ref)
				}
			}
		})
	}
}
