package costmodel

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// TestNoAllocKernels is the runtime gate of the //caws:noalloc contract
// (DESIGN.md §8): after one warm-up call grows the pooled arenas and
// fills the schedule caches, the annotated evaluation kernels run the
// steady state with zero heap allocations — through the aggregated
// stage, the flat leaf-pair kernel, and the candidate overlay. The
// build-time halves of the contract are cawslint's noalloc analyzer and
// scripts/noalloc-check.sh's escape-diagnostic intersection; this test
// proves the sanctioned guarded grow branches really are cold once warm.
func TestNoAllocKernels(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the zero-alloc pin is measured without -race")
	}
	// One resident node on each of the first 128 leaves of a 256-leaf
	// two-tier machine: wide enough to engage the subtree-aggregated
	// stage (AggTouchedLeaves = 96); the second node of each leaf forms
	// the candidate for the overlay path.
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{16, 16}})
	st := cluster.New(topo)
	nodes := make([]int, 128)
	cand := make([]int, 128)
	for i := range nodes {
		ln := topo.LeafNodes(i)
		nodes[i] = ln[0]
		cand[i] = ln[1]
	}
	if err := st.Allocate(1, cluster.CommIntensive, nodes); err != nil {
		t.Fatal(err)
	}
	steps := collective.Alltoall.MustSchedule(len(nodes))
	if agg, err := ScheduleAggregated(st, nodes, steps); err != nil || !agg {
		t.Fatalf("fixture not on the aggregated path (agg=%v, err=%v)", agg, err)
	}

	check := func(name string, f func()) {
		t.Helper()
		f() // warm the pools, the schedule caches and the compiled kernels
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0 (//caws:noalloc contract)", name, allocs)
		}
	}
	check("aggregated/JobCost", func() {
		if _, err := JobCost(st, nodes, steps); err != nil {
			t.Fatal(err)
		}
	})
	check("aggregated/JobCostHopBytes", func() {
		if _, err := JobCostHopBytes(st, nodes, steps, 3); err != nil {
			t.Fatal(err)
		}
	})
	check("aggregated/JobCostMode(distance)", func() {
		if _, err := JobCostMode(st, nodes, steps, ModeDistanceOnly); err != nil {
			t.Fatal(err)
		}
	})
	check("aggregated/CandidateCost", func() {
		if _, err := CandidateCost(st, cluster.JobID(99), cluster.CommIntensive, cand, collective.Alltoall); err != nil {
			t.Fatal(err)
		}
	})

	// The flat evaluators, called on the same compiled schedules: what a
	// schedule narrower than this fixture's runs.
	ls, err := leafSchedFor(st, nodes, steps)
	if err != nil || ls == nil {
		t.Fatalf("leafSchedFor = %v, %v", ls, err)
	}
	pl := cluster.NewPlacement(cand)
	cls, err := candidateSched(st, 99, &pl, collective.Alltoall)
	if err != nil || cls == nil {
		t.Fatalf("candidateSched = %v, %v", cls, err)
	}
	check("flat/eval", func() { ls.evalFlat(st, false, false, 0) })
	check("flat/eval(hop-bytes)", func() { ls.evalFlat(st, false, true, 3) })
	check("flat/evalDistance", func() { ls.evalDistanceFlat() })
	check("flat/eval(overlay)", func() { cls.evalFlat(st, true, false, 0) })
}
