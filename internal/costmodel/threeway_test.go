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

// threeWay is one price computed every way there is. The kernel a schedule
// takes is fixed when it is compiled, so the flat and the aggregated
// evaluator are compared by calling both on the one compiled schedule, and
// the reference value comes from the state's reference clone.
type threeWay struct {
	entry  float64 // the exported entry point on the optimized state
	agg    float64 // evalAgg/evalDistanceAgg called directly (flat's value if no stage was compiled)
	flat   float64 // evalFlat/evalDistanceFlat called directly
	ref    float64 // the exported entry point on the state's reference clone
	staged bool    // the schedule compiled an aggregation stage
}

// check requires the four values bit-identical.
func (w threeWay) check(t testing.TB, label string) {
	t.Helper()
	bits := math.Float64bits
	if bits(w.entry) != bits(w.agg) || bits(w.agg) != bits(w.flat) || bits(w.agg) != bits(w.ref) {
		t.Errorf("%s: entry point %v, aggregated %v, flat %v, reference %v", label, w.entry, w.agg, w.flat, w.ref)
	}
}

// evalBoth runs a compiled schedule through the flat and, if it has a
// stage, the aggregated evaluator.
func evalBoth(ls *leafSchedule, st *cluster.State, overlay bool, mode Mode, base float64) (agg, flat float64) {
	if mode == ModeDistanceOnly {
		flat = ls.evalDistanceFlat()
		if agg = flat; ls.agg != nil {
			agg = ls.evalDistanceAgg()
		}
		return agg, flat
	}
	flat = ls.evalFlat(st, overlay, mode == ModeHopBytes, base)
	if agg = flat; ls.agg != nil {
		agg = ls.evalAgg(st, overlay, mode == ModeHopBytes, base)
	}
	return agg, flat
}

// priceJob prices (nodes, steps) against st under mode; base scales
// hop-bytes. A list only the reference loops price (a repeated node id)
// has no compiled schedule to evaluate directly.
func priceJob(t testing.TB, st *cluster.State, nodes []int, steps []collective.Step, mode Mode, base float64) threeWay {
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
	ls, err := leafSchedFor(st, nodes, steps)
	if err != nil {
		t.Fatal(err)
	}
	w := threeWay{entry: entry(st), ref: entry(st.CloneAs(true))}
	if w.agg, w.flat = w.entry, w.entry; ls != nil {
		w.staged = ls.agg != nil
		w.agg, w.flat = evalBoth(ls, st, false, mode, base)
	}
	return w
}

// priceCandidate prices job on nodes as a candidate under mode, the
// evaluators with the overlay PlacementCostMode would give them.
func priceCandidate(t testing.TB, st *cluster.State, job cluster.JobID, class cluster.Class, nodes []int, p collective.Pattern, mode Mode) threeWay {
	t.Helper()
	entry := func(st *cluster.State) float64 {
		c, err := CandidateCostMode(st, job, class, nodes, p, mode)
		if err != nil {
			t.Fatalf("%v %v candidate cost (reference=%v): %v", class, mode, st.Reference(), err)
		}
		return c
	}
	pl := cluster.NewPlacement(nodes)
	ls, err := candidateSched(st, job, &pl, p)
	if err != nil || ls == nil {
		t.Fatalf("candidateSched = %v, %v", ls, err)
	}
	w := threeWay{entry: entry(st), ref: entry(st.CloneAs(true)), staged: ls.agg != nil}
	w.agg, w.flat = evalBoth(ls, st, class == cluster.CommIntensive, mode, 1)
	return w
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

// TestCrossScaleWideJobKernels is the aggregated ≡ flat half of
// verify.TestCrossScaleWideJobParity (which keeps aggregated ≡ reference
// through the entry points): at 512 and 4096 leaves, jobs wide enough to
// compile an aggregation stage are priced through the aggregated evaluator,
// the flat one on the same compiled schedule, and the reference loops, bit
// for bit, as jobs in every cost mode and as candidates of both classes.
// Residents on the first, middle and last leaves make several subtrees
// non-uniform, so the collapsed uniform-block path and the exact per-block
// fallback both run; alltoall supplies the quadratic pair structure the
// aggregation exists for.
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
					w := priceJob(t, st, wide, steps, mode, 1)
					if !w.staged {
						t.Fatalf("wide %v compiled no aggregation stage; property vacuous", pat)
					}
					w.check(t, fmt.Sprintf("%v job, %v", pat, mode))
				}
			}
			if narrow := priceJob(t, st, wide[:8], collective.RD.MustSchedule(8), ModeEffectiveHops, 1); narrow.staged {
				t.Fatal("narrow RD compiled an aggregation stage; heuristic gate broken")
			}
			for _, class := range []cluster.Class{cluster.CommIntensive, cluster.ComputeIntensive} {
				for _, mode := range allModes {
					w := priceCandidate(t, st, 1<<29, class, wide, collective.Alltoall, mode)
					if !w.staged {
						t.Fatalf("wide %v candidate compiled no aggregation stage", class)
					}
					w.check(t, fmt.Sprintf("%v candidate, %v", class, mode))
				}
			}
		})
	}
}

// FuzzSubtreeAggregation hands fuzzer-chosen tree shapes and job widths
// straddling the flat/aggregated threshold (AggTouchedLeaves touched
// leaves) to the three-way parity check: the subtree-aggregated evaluator,
// the flat one, and the node-pair reference loops must produce bit-identical
// job and candidate costs on the same randomly loaded state. The random
// residents perturb per-leaf comm counters, so uniform subtrees (collapsed
// blocks) and non-uniform ones (exact per-block fallback) both occur; the
// corpus seeds pin widths just under, at, and past the threshold on two-
// and three-level trees. (verify.FuzzSubtreeAggregation draws the same
// inputs and checks the entry points against the reference alone.)
func FuzzSubtreeAggregation(f *testing.F) {
	f.Add(uint8(40), uint8(4), uint8(1), int8(-4), int64(1))
	f.Add(uint8(40), uint8(4), uint8(1), int8(0), int64(2))
	f.Add(uint8(40), uint8(4), uint8(1), int8(8), int64(3))
	f.Add(uint8(60), uint8(1), uint8(2), int8(16), int64(4)) // two-level: no agg level
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

		// Random resident load first, so several leaves carry extra comm
		// and subtree uniformity is not a given.
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

		// The wide job's width straddles the aggregation threshold under
		// fuzzer control; its nodes stripe round-robin across leaves so
		// touched leaves ≈ width.
		width := AggTouchedLeaves + int(widthDelta)
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
		label := fmt.Sprintf("agg npl=%d fanouts=%v width=%d %v", npl, fanouts, len(wide), pat)
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
