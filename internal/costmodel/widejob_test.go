package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// parity is one price computed on the fast path and on the reference
// path: the exported entry point on the optimized state and on its
// reference clone.
type parity struct {
	fast, ref float64
}

// check requires the two values bit-identical.
func (w parity) check(t testing.TB, label string) {
	t.Helper()
	if math.Float64bits(w.fast) != math.Float64bits(w.ref) {
		t.Errorf("%s: fast %v, reference %v", label, w.fast, w.ref)
	}
}

// checkNonZero requires a parity that is not vacuous.
func checkNonZero(t *testing.T, label string, w parity) {
	t.Helper()
	if w.fast == 0 {
		t.Errorf("%s evaluated to zero; the parity is vacuous", label)
	}
	w.check(t, label)
}

// priceJob prices (nodes, steps) against st under mode; base scales
// hop-bytes.
func priceJob(t testing.TB, st *cluster.State, nodes []int, steps []collective.Step, mode Mode, base float64) parity {
	t.Helper()
	entry := func(st *cluster.State) float64 {
		var c float64
		var err error
		if mode == ModeHopBytes {
			c, err = JobCostHopBytes(st, nodes, steps, base)
		} else {
			c, err = JobCostMode(st, nodes, steps, mode)
		}
		if err != nil {
			t.Fatalf("%v job cost (reference=%v): %v", mode, st.Reference(), err)
		}
		return c
	}
	return parity{fast: entry(st), ref: entry(st.CloneAs(true))}
}

// priceCandidate prices job on nodes as a candidate under mode: the overlay
// on st against tentative allocation on its reference clone.
func priceCandidate(t testing.TB, st *cluster.State, job cluster.JobID, class cluster.Class, nodes []int, p collective.Pattern, mode Mode) parity {
	t.Helper()
	entry := func(st *cluster.State) float64 {
		c, err := CandidateCostMode(st, job, class, nodes, p, mode)
		if err != nil {
			t.Fatalf("%v %v candidate cost (reference=%v): %v", class, mode, st.Reference(), err)
		}
		return c
	}
	return parity{fast: entry(st), ref: entry(st.CloneAs(true))}
}

var allModes = []Mode{ModeEffectiveHops, ModeHopBytes, ModeDistanceOnly}

// spreadNodes picks n free nodes of st spread evenly across the machine's
// leaves, one per leaf while leaves last, so a job of n ≤ leaves ranks
// touches n leaves at both ends of the index space.
func spreadNodes(t testing.TB, st *cluster.State, n int) []int {
	t.Helper()
	topo := st.Topology()
	leaves := topo.NumLeaves()
	taken := make(map[int]bool, n)
	var nodes []int
	for k := 0; k < leaves && len(nodes) < n; k++ {
		for _, id := range topo.LeafNodes((k * leaves) / n % leaves) {
			if st.NodeFree(id) && !taken[id] {
				taken[id], nodes = true, append(nodes, id)
				break
			}
		}
	}
	for id := 0; id < topo.NumNodes() && len(nodes) < n; id++ {
		if st.NodeFree(id) && !taken[id] {
			taken[id], nodes = true, append(nodes, id)
		}
	}
	if len(nodes) < n {
		t.Fatalf("machine too small for a %d-node job", n)
	}
	return nodes
}

// subtreeAggState builds a 128-leaf, 8-pod machine (two nodes per leaf)
// with a resident comm job on the second nodes of pod 0's middle leaves
// (8..11), so a wide job's leaves differ in contention inside one pod and
// agree across the others. Returns the state and a wide node list: the
// first node of each of the first width leaves.
func subtreeAggState(t *testing.T, width int) (*cluster.State, []int) {
	t.Helper()
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{16, 8}})
	st := cluster.New(topo)
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

// TestSubtreeScheduleParity prices a job across seven pods through every
// step shape the walk distinguishes — compute steps mixing intra-pod and
// cross-pod pairs, empty steps, repeated steps (shared Pairs backing
// array), self pairs, per-step message sizes — and a full recursive
// doubling, on a state where pod 0's leaves differ in contention. Fast and
// reference prices must agree bit for bit on Eq. 6, hop-bytes, and
// distance-only costs.
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
	checkNonZero(t, "JobCost", priceJob(t, st, nodes, steps, ModeEffectiveHops, 1))
	checkNonZero(t, "JobCostHopBytes", priceJob(t, st, nodes, steps, ModeHopBytes, 3))
	checkNonZero(t, "JobCostMode(DistanceOnly)", priceJob(t, st, nodes, steps, ModeDistanceOnly, 1))

	rd, err := ScheduleFor(collective.RD, len(nodes))
	if err != nil {
		t.Fatal(err)
	}
	checkNonZero(t, "JobCost(RD)", priceJob(t, st, nodes, rd, ModeEffectiveHops, 1))
}

// TestSubtreeCandidateOverlayParity prices a wide candidate under the
// read-only overlay, where every touched leaf's effective comm is the
// overlay value, against tentative allocation on the reference clone. The
// state must be untouched afterwards (the overlay never allocates).
func TestSubtreeCandidateOverlayParity(t *testing.T) {
	st, nodes := subtreeAggState(t, 100)
	gen := st.Generation()
	for _, mode := range allModes {
		checkNonZero(t, "CandidateCostMode "+mode.String(),
			priceCandidate(t, st, 7, cluster.CommIntensive, nodes, collective.Alltoall, mode))
	}
	if st.Generation() != gen {
		t.Errorf("candidate pricing or the reference clone's rollback moved the optimized state (gen %d -> %d)", gen, st.Generation())
	}
	if st.Allocation(7) != nil {
		t.Error("candidate job left allocated")
	}
}

// TestCrossScaleWideJobKernels is the package-level half of
// verify.TestCrossScaleWideJobParity: at 512 and 4096 leaves, jobs touching
// hundreds of leaves are priced through the entry points and the reference
// loops, bit for bit, as jobs in every cost mode and as candidates of both
// classes. Residents on the first, middle and last leaves make the leaves'
// contention differ; alltoall supplies the quadratic leaf-pair structure.
func TestCrossScaleWideJobKernels(t *testing.T) {
	for _, shape := range []struct {
		leaves int
		spec   topology.Spec
	}{
		{512, topology.Spec{NodesPerLeaf: 2, Fanouts: []int{128, 4}}},
		{4096, topology.Spec{NodesPerLeaf: 2, Fanouts: []int{512, 8}}},
	} {
		t.Run(fmt.Sprintf("L=%d", shape.leaves), func(t *testing.T) {
			topo, leaves := topology.MustGenerate(shape.spec), shape.leaves
			st := cluster.New(topo)
			for i, nodes := range [][]int{
				{topo.LeafNodes(0)[0], topo.LeafNodes(0)[1]},
				{topo.LeafNodes(leaves / 2)[0], topo.LeafNodes(leaves - 1)[0]},
				{topo.LeafNodes(leaves / 3)[0], topo.LeafNodes(2 * leaves / 3)[0]},
			} {
				if err := st.Allocate(cluster.JobID(9000+i), cluster.CommIntensive, nodes); err != nil {
					t.Fatalf("resident allocate: %v", err)
				}
			}
			wide := spreadNodes(t, st, min(leaves/2, 1024))
			for _, pat := range []collective.Pattern{collective.Alltoall, collective.RD, collective.Ring} {
				steps, err := ScheduleFor(pat, len(wide))
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range allModes {
					priceJob(t, st, wide, steps, mode, 1).check(t, fmt.Sprintf("%v job, %v", pat, mode))
				}
			}
			for _, class := range []cluster.Class{cluster.CommIntensive, cluster.ComputeIntensive} {
				for _, mode := range allModes {
					priceCandidate(t, st, 1<<29, class, wide, collective.Alltoall, mode).
						check(t, fmt.Sprintf("%v candidate, %v", class, mode))
				}
			}
		})
	}
}

// FuzzSubtreeAggregation hands fuzzer-chosen tree shapes and job widths
// (tens to a few hundred touched leaves) to the parity check: the fast
// path and the node-pair reference loops must produce bit-identical job
// and candidate costs on the same randomly loaded state. The random
// residents perturb per-leaf comm counters; negative seeds permute the
// ranks (one rank per run) and even negative ones repeat a node id, which
// the reference loops price. (verify.FuzzSubtreeAggregation draws the same
// inputs through the differential harness.)
func FuzzSubtreeAggregation(f *testing.F) {
	f.Add(uint8(40), uint8(4), uint8(1), int8(-4), int64(1))
	f.Add(uint8(40), uint8(4), uint8(1), int8(0), int64(2))
	f.Add(uint8(40), uint8(4), uint8(1), int8(8), int64(3))
	f.Add(uint8(60), uint8(1), uint8(2), int8(16), int64(4)) // two-level tree
	f.Add(uint8(33), uint8(5), uint8(2), int8(40), int64(5))
	f.Add(uint8(40), uint8(4), uint8(1), int8(8), int64(-1)) // permuted ranks
	f.Add(uint8(40), uint8(4), uint8(2), int8(8), int64(-2)) // permuted, one node id repeated
	f.Fuzz(func(t *testing.T, leavesRaw, podsRaw, nplRaw uint8, widthDelta int8, seed int64) {
		leavesPerPod := 8 + int(leavesRaw)%96
		pods := 1 + int(podsRaw)%5
		npl := 1 + int(nplRaw)%3
		fanouts := []int{leavesPerPod}
		if pods > 1 {
			fanouts = []int{leavesPerPod, pods}
		}
		topo, err := topology.Generate(topology.Spec{NodesPerLeaf: npl, Fanouts: fanouts})
		if err != nil {
			t.Skip() // degenerate shape
		}
		st := cluster.New(topo)
		rng := rand.New(rand.NewSource(seed))

		// Random resident load first, so several leaves carry extra comm.
		for j := 0; j < 3; j++ {
			var nodes []int
			for id := 0; id < topo.NumNodes() && len(nodes) < 2+rng.Intn(6); id++ {
				if st.NodeFree(id) && rng.Intn(5) == 0 {
					nodes = append(nodes, id)
				}
			}
			if len(nodes) < 2 {
				continue
			}
			if err := st.Allocate(cluster.JobID(100+j), cluster.CommIntensive, nodes); err != nil {
				t.Fatalf("resident allocate: %v", err)
			}
		}

		// The wide job's nodes stripe round-robin across leaves, so touched
		// leaves ≈ width.
		width := 96 + int(widthDelta)
		var wide []int
		leaves := topo.NumLeaves()
		for k := 0; k < topo.NumNodes() && len(wide) < width; k++ {
			for _, id := range topo.LeafNodes(k % leaves) {
				if st.NodeFree(id) && !slices.Contains(wide, id) {
					wide = append(wide, id)
					break
				}
			}
		}
		if len(wide) < 2 {
			t.Skip() // machine too small/loaded for any job
		}
		pat := []collective.Pattern{collective.RD, collective.Ring, collective.Binomial}[uint64(seed)%3]
		label := fmt.Sprintf("npl=%d fanouts=%v width=%d %v", npl, fanouts, len(wide), pat)
		for _, class := range []cluster.Class{cluster.CommIntensive, cluster.ComputeIntensive} {
			priceCandidate(t, st, 300, class, wide, pat, ModeEffectiveHops).check(t, label+" candidate")
		}
		if seed < 0 { // rank-remapped shapes are only costed, never allocated
			rng.Shuffle(len(wide), func(i, j int) { wide[i], wide[j] = wide[j], wide[i] })
			if seed%2 == 0 {
				wide[len(wide)-1] = wide[0]
			}
		}
		steps, err := ScheduleFor(pat, len(wide))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range allModes {
			priceJob(t, st, wide, steps, mode, 1).check(t, label+" job, "+mode.String())
		}
	})
}
