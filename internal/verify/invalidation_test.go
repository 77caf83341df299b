package verify

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/workload"
)

// TestCacheInvalidationUnderChurn is the invalidation property for what
// pricing keeps across mutations (the schedule memo, the caller's scratch
// and its epoch-stamped leaf tables, one scratch for the whole sequence): across interleaved
// Allocate/Release/Drain/Resume sequences (every kind of generation bump),
// the fast paths — JobCost in every mode and the overlay CandidateCostMode
// — must stay bit-identical to the reference loop evaluated on a
// reference clone of the very same state. A single stale value or
// desynchronised SoA layout shows up as a float64 bit mismatch.
func TestCacheInvalidationUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runChurnSpec(t, DefaultSpec(seed))
	}
}

// TestCacheInvalidationUnderChurnLargeTopology runs the same churn
// property on machines past 128 leaves, where on-demand layout distances
// and the compact pair index serve the fast path. These topologies once
// fell back silently to the reference loop, so churn never exercised the
// kernel at this scale.
func TestCacheInvalidationUnderChurnLargeTopology(t *testing.T) {
	specs := []TraceSpec{
		// Two-level tree, 150 leaves.
		{Seed: 401, Jobs: 20, Leaves: 150, NodesPerLeaf: 2, Pods: 1,
			CommFraction: 0.7, Load: 0.9},
		// Three-level tree, 3 pods × 70 leaves = 210 leaves.
		{Seed: 402, Jobs: 20, Leaves: 70, NodesPerLeaf: 2, Pods: 3,
			CommFraction: 0.7, Load: 0.9},
	}
	for _, spec := range specs {
		if lv := spec.Leaves * spec.Pods; lv <= 128 {
			t.Fatalf("spec %v has %d leaves, not beyond 128", spec, lv)
		}
		runChurnSpec(t, spec)
	}
}

// runChurnSpec drives one spec's trace through interleaved
// Allocate/Release/Drain/Resume churn, checking fast/reference
// bit-identity and state invariants after every mutation.
func runChurnSpec(t *testing.T, spec TraceSpec) {
	t.Helper()
	topo, trace, err := spec.Build()
	if err != nil {
		t.Fatalf("%v: %v", spec, err)
	}
	st := cluster.New(topo)
	rng := rand.New(rand.NewSource(spec.Seed ^ 0xcac4e))
	sel := core.MustNew(core.Greedy)
	sc := new(costmodel.Scratch)

	var live []activeJob
	next := 0
	for op := 0; op < 120 && (next < len(trace.Jobs) || len(live) > 0); op++ {
		mutated := false
		if next < len(trace.Jobs) && (len(live) == 0 || rng.Float64() < 0.6) {
			job := trace.Jobs[next]
			nodes, serr := sel.Select(st, core.Request{
				Job: job.ID, Nodes: job.Nodes, Class: job.Class, Pattern: jobPattern(job),
			})
			if serr == nil {
				if err := st.Allocate(job.ID, job.Class, nodes); err != nil {
					t.Fatalf("%v op %d: allocate: %v", spec, op, err)
				}
				live = append(live, activeJob{job.ID, nodes, jobPattern(job)})
				next++
				mutated = true
			}
		}
		if !mutated && len(live) > 0 {
			i := rng.Intn(len(live))
			if err := st.Release(live[i].id); err != nil {
				t.Fatalf("%v op %d: release: %v", spec, op, err)
			}
			live = append(live[:i], live[i+1:]...)
			mutated = true
		}
		if !mutated {
			continue
		}
		// Drain/Resume bump the generation without touching comm
		// counters; parity must hold across them too.
		if rng.Float64() < 0.25 {
			for id := 0; id < topo.NumNodes(); id++ {
				if st.NodeFree(id) {
					if err := st.Drain(id); err != nil {
						t.Fatalf("%v op %d: drain: %v", spec, op, err)
					}
					if err := st.Resume(id); err != nil {
						t.Fatalf("%v op %d: resume: %v", spec, op, err)
					}
					break
				}
			}
		}
		checkFastRefBitIdentical(t, sc, st, live, spec.String(), op)
		// A fresh clone must cost identically to its own reference.
		if rng.Float64() < 0.2 {
			checkFastRefBitIdentical(t, sc, st.Clone(), live, spec.String()+" (clone)", op)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("%v op %d: %v", spec, op, err)
		}
	}
	if next == 0 {
		t.Fatalf("%v: trace scheduled no jobs, property vacuous", spec)
	}
}

// activeJob is one currently-allocated job in the churn property.
type activeJob struct {
	id      cluster.JobID
	nodes   []int
	pattern collective.Pattern
}

// checkFastRefBitIdentical costs every live job in every mode, and one
// synthetic candidate, through the fast paths and then on a reference
// clone through the reference loop, requiring bit-identical float64
// results. The fast paths price in sc.
func checkFastRefBitIdentical(t *testing.T, sc *costmodel.Scratch, st *cluster.State, live []activeJob, spec string, op int) {
	t.Helper()
	ref := st.CloneAs(true)
	for _, a := range live {
		for _, mode := range allModes {
			fast, err := sc.JobCost(st, a.nodes, a.pattern, mode)
			if err != nil {
				t.Fatalf("%s op %d: fast %v JobCost: %v", spec, op, mode, err)
			}
			want, err := costmodel.JobCost(ref, a.nodes, a.pattern, mode)
			if err != nil {
				t.Fatalf("%s op %d: reference %v JobCost: %v", spec, op, mode, err)
			}
			if math.Float64bits(fast) != math.Float64bits(want) {
				t.Fatalf("%s op %d job %d: fast %v JobCost %v != reference %v", spec, op, a.id, mode, fast, want)
			}
		}
	}
	checkCandidateParity(t, sc, st, spec, op)
}

// checkCandidateParity prices a synthetic candidate over the currently
// free nodes through the read-only overlay and, on a reference clone,
// through the allocate/cost/rollback path, for both job classes (only
// comm-intensive candidates overlay the comm counters).
func checkCandidateParity(t *testing.T, sc *costmodel.Scratch, st *cluster.State, spec string, op int) {
	t.Helper()
	var cand []int
	for id := 0; id < st.Topology().NumNodes() && len(cand) < 8; id++ {
		if st.NodeFree(id) {
			cand = append(cand, id)
		}
	}
	if len(cand) < 2 {
		return
	}
	const candJob = cluster.JobID(1 << 30)
	for _, class := range []cluster.Class{cluster.CommIntensive, cluster.ComputeIntensive} {
		fast, err := sc.CandidateCostMode(st, candJob, class, cand, collective.RD, costmodel.ModeEffectiveHops)
		if err != nil {
			t.Fatalf("%s op %d: fast CandidateCostMode: %v", spec, op, err)
		}
		refSt := st.CloneAs(true)
		gen, refGen := st.Generation(), refSt.Generation()
		ref, err := costmodel.CandidateCostMode(refSt, candJob, class, cand, collective.RD, costmodel.ModeEffectiveHops)
		if err != nil {
			t.Fatalf("%s op %d: reference CandidateCostMode: %v", spec, op, err)
		}
		if math.Float64bits(fast) != math.Float64bits(ref) {
			t.Fatalf("%s op %d class %v: fast CandidateCostMode %v != reference %v", spec, op, class, fast, ref)
		}
		// The reference path allocates and rolls back (two generation
		// bumps) on its own state; the overlay reads and moves nothing.
		if refSt.Generation() == refGen || st.Generation() != gen {
			t.Fatalf("%s op %d: generations after pricing: reference %d -> %d, optimized %d -> %d",
				spec, op, refGen, refSt.Generation(), gen, st.Generation())
		}
		again, err := sc.CandidateCostMode(st, candJob, class, cand, collective.RD, costmodel.ModeEffectiveHops)
		if err != nil {
			t.Fatalf("%s op %d: re-priced CandidateCostMode: %v", spec, op, err)
		}
		if math.Float64bits(again) != math.Float64bits(fast) {
			t.Fatalf("%s op %d class %v: CandidateCostMode unstable across calls: %v then %v", spec, op, class, fast, again)
		}
	}
}

// jobPattern extracts the costing pattern for a generated job (RD for the
// compute-only jobs, which still get priced by the selectors).
func jobPattern(j workload.Job) collective.Pattern {
	if len(j.Mix.Comms) > 0 {
		return j.Mix.Comms[0].Pattern
	}
	return collective.RD
}
