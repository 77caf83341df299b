package costmodel

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// subtreeAggState builds a 128-leaf, 8-pod machine (two nodes per leaf)
// with a usable aggregation level and a resident comm job on the second
// nodes of a few pod-0 leaves — so pod 0 is non-uniform for any wide job
// touching those leaves while the other pods collapse. Returns the state
// and a wide node list: the first node of each of the first `width`
// leaves.
func subtreeAggState(t *testing.T, width int) (*cluster.State, []int) {
	t.Helper()
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{16, 8}})
	st := cluster.New(topo)
	// The resident sits on pod 0's *middle* leaves (8..11), not its first:
	// cross-block representatives are first-compiled pairs, which involve
	// the pod's low leaves, so a kernel that wrongly collapsed the
	// non-uniform pod would under-report the block max — a bug this
	// fixture must catch, not mask.
	resident := make([]int, 0, 4)
	for l := 8; l < 12; l++ {
		resident = append(resident, topo.LeafNodes(l)[1])
	}
	if err := st.Allocate(900, cluster.CommIntensive, resident); err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, width)
	for i := range nodes {
		nodes[i] = topo.LeafNodes(i)[0]
	}
	return st, nodes
}

// checkNonZero requires a three-way parity that is not vacuous.
func checkNonZero(t *testing.T, label string, w threeWay) {
	t.Helper()
	if !w.staged {
		t.Errorf("%s compiled no aggregation stage; the parity is vacuous", label)
	}
	if w.agg == 0 {
		t.Errorf("%s evaluated to zero; the parity is vacuous", label)
	}
	w.check(t, label)
}

// TestSubtreeScheduleParity drives the aggregation stage through every
// step shape the compiler distinguishes — compute steps mixing intra-pod
// and cross-pod pairs, empty steps, repeated steps (shared Pairs backing
// array), self pairs, per-step message sizes — on a state where pod 0 is
// non-uniform (resident comm on half its first leaves' siblings) and the
// other pods collapse. Aggregated, flat, and reference evaluations must
// agree bit for bit on Eq. 6, hop-bytes, and distance-only costs.
func TestSubtreeScheduleParity(t *testing.T) {
	st, nodes := subtreeAggState(t, 100)
	shared := []collective.Pair{{A: 0, B: 99}, {A: 17, B: 81}, {A: 3, B: 5}}
	steps := []collective.Step{
		{Pairs: []collective.Pair{{A: 0, B: 1}, {A: 2, B: 18}}, MsgSize: 1}, // intra-pod + cross-pod
		{Pairs: nil, MsgSize: 4},                             // empty
		{Pairs: shared, MsgSize: 2},                          // compute
		{Pairs: shared, MsgSize: 8},                          // repeat: same backing array
		{Pairs: []collective.Pair{{A: 7, B: 7}}, MsgSize: 1}, // self pair only
		{Pairs: []collective.Pair{{A: 96, B: 32}, {A: 64, B: 48}, {A: 1, B: 1}}, MsgSize: 0.5},
	}
	if agg, err := ScheduleAggregated(st, nodes, steps); err != nil || !agg {
		t.Fatalf("fixture not on the aggregated path (agg=%v, err=%v)", agg, err)
	}
	checkNonZero(t, "JobCost", priceJob(t, st, nodes, steps, ModeEffectiveHops, 1))
	checkNonZero(t, "JobCostHopBytes", priceJob(t, st, nodes, steps, ModeHopBytes, 3))
	checkNonZero(t, "JobCostMode(DistanceOnly)", priceJob(t, st, nodes, steps, ModeDistanceOnly, 1))

	// A full collective over the same nodes exercises the dense per-step
	// entry lists (every XOR step has many live blocks).
	rd, err := ScheduleFor(collective.RD, len(nodes))
	if err != nil {
		t.Fatal(err)
	}
	checkNonZero(t, "JobCost(RD)", priceJob(t, st, nodes, rd, ModeEffectiveHops, 1))
}

// TestSubtreeCandidateOverlayParity prices a wide candidate — the
// aggregation stage under the read-only overlay, where every touched
// leaf's effective comm is the overlay value — through all three paths.
// The state must be untouched afterwards (the overlay never allocates).
func TestSubtreeCandidateOverlayParity(t *testing.T) {
	st, nodes := subtreeAggState(t, 100)
	// The aggregated overlay path must be read-only (the reference leg
	// below allocates and releases on a clone of its own).
	gen := st.Generation()
	if _, err := CandidateCostMode(st, 7, cluster.CommIntensive, nodes, collective.Alltoall, ModeEffectiveHops); err != nil {
		t.Fatal(err)
	}
	if st.Generation() != gen {
		t.Errorf("aggregated candidate costing mutated the state (gen %d -> %d)", gen, st.Generation())
	}
	for _, mode := range allModes {
		checkNonZero(t, "CandidateCostMode "+mode.String(),
			priceCandidate(t, st, 7, cluster.CommIntensive, nodes, collective.Alltoall, mode))
	}
	if st.Generation() != gen {
		t.Errorf("the evaluators or the reference clone's rollback moved the optimized state (gen %d -> %d)", gen, st.Generation())
	}
	if st.Allocation(7) != nil {
		t.Error("candidate job left allocated")
	}
}

// TestScheduleAggregatedGate pins every branch of the engagement
// heuristic: wide jobs on a multi-tier tree aggregate; narrow jobs, empty
// schedules, reference states, two-level trees (no aggregation level),
// single-subtree jobs, and one-leaf-per-subtree jobs all stay flat; compile
// errors propagate.
func TestScheduleAggregatedGate(t *testing.T) {
	st, nodes := subtreeAggState(t, AggTouchedLeaves)
	steps, err := ScheduleFor(collective.Ring, len(nodes))
	if err != nil {
		t.Fatal(err)
	}
	mustAgg := func(want bool, label string, st *cluster.State, nodes []int, steps []collective.Step) {
		t.Helper()
		got, err := ScheduleAggregated(st, nodes, steps)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got != want {
			t.Errorf("%s: ScheduleAggregated = %v, want %v", label, got, want)
		}
	}
	mustAgg(true, "wide at threshold", st, nodes, steps)

	narrow, err := ScheduleFor(collective.Ring, AggTouchedLeaves-1)
	if err != nil {
		t.Fatal(err)
	}
	mustAgg(false, "one under threshold", st, nodes[:AggTouchedLeaves-1], narrow)
	mustAgg(false, "empty schedule", st, nodes, nil)

	mustAgg(false, "reference state", st.CloneAs(true), nodes, steps)

	if _, err := ScheduleAggregated(st, nodes[:2], steps); err == nil {
		t.Error("out-of-range schedule pairs: expected a compile error")
	}

	// Two-level tree: no level has 2 ≤ groups < leaves, so AggLevel is 0
	// and even machine-wide jobs stay flat.
	flatTopo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 1, Fanouts: []int{128}})
	flatSt := cluster.New(flatTopo)
	flatNodes := make([]int, 100)
	for i := range flatNodes {
		flatNodes[i] = flatTopo.LeafNodes(i)[0]
	}
	flatSteps, err := ScheduleFor(collective.Ring, len(flatNodes))
	if err != nil {
		t.Fatal(err)
	}
	mustAgg(false, "two-level tree", flatSt, flatNodes, flatSteps)

	// All touched leaves in one pod: a single subtree partitions nothing.
	oneTopo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 1, Fanouts: []int{128, 2}})
	oneSt := cluster.New(oneTopo)
	oneNodes := make([]int, AggTouchedLeaves)
	for i := range oneNodes {
		oneNodes[i] = oneTopo.LeafNodes(i)[0] // leaves 0..95 all in pod 0
	}
	oneSteps, err := ScheduleFor(collective.Ring, len(oneNodes))
	if err != nil {
		t.Fatal(err)
	}
	mustAgg(false, "single subtree", oneSt, oneNodes, oneSteps)

	// One leaf per subtree: every block is a single pair, nothing to
	// collapse (nSubs == nTouched).
	perTopo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 1, Fanouts: []int{2, 96}})
	perSt := cluster.New(perTopo)
	perNodes := make([]int, AggTouchedLeaves)
	for i := range perNodes {
		perNodes[i] = perTopo.LeafNodes(2 * i)[0] // first leaf of each pod
	}
	perSteps, err := ScheduleFor(collective.Ring, len(perNodes))
	if err != nil {
		t.Fatal(err)
	}
	mustAgg(false, "one leaf per subtree", perSt, perNodes, perSteps)
}
