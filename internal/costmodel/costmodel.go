// Package costmodel implements the paper's communication cost estimation
// (§5.3): the contention factor C(i,j) (Eq. 2 and Eq. 3), the effective
// hops Hops(i,j) = d(i,j) * (1 + C(i,j)) (Eq. 5), the per-job cost
// Cost = Σ_steps max_pairs Hops (Eq. 6), its hop-bytes variant, and the
// runtime modification T' = T_compute + T_comm * Cost_jobaware/Cost_default
// (Eq. 7).
//
// Costs are evaluated against a cluster.State in which the job under
// consideration is already allocated, matching the paper's worked example
// (Figure 5), where a job's own nodes count towards L_comm.
package costmodel

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collective"
)

// Contention returns C(i,j) for nodes i and j.
//
// Same leaf (Eq. 2):       C = L_comm / L_nodes
// Different leaves (Eq. 3): C = Li_comm/Li_nodes + Lj_comm/Lj_nodes
//   - ½ (Li_comm+Lj_comm)/(Li_nodes+Lj_nodes)
//
// The ½ factor models the doubling of link capacity towards the fat-tree
// root; following the paper we apply Eq. 3 unchanged whatever the level of
// the lowest common switch.
func Contention(st *cluster.State, i, j int) float64 {
	topo := st.Topology()
	li, lj := topo.LeafOf(i), topo.LeafOf(j)
	if li == lj {
		return st.CommShare(li)
	}
	ci, cj := st.CommShare(li), st.CommShare(lj)
	shared := 0.5 * float64(st.LeafComm(li)+st.LeafComm(lj)) /
		float64(topo.LeafSize(li)+topo.LeafSize(lj))
	return ci + cj + shared
}

// Hops returns the effective hops of Eq. 5:
// Hops(i,j) = d(i,j) * (1 + C(i,j)).
func Hops(st *cluster.State, i, j int) float64 {
	d := st.Topology().Distance(i, j)
	if d == 0 {
		return 0
	}
	return float64(d) * (1 + Contention(st, i, j))
}

// JobCost evaluates Eq. 6 for a job whose rank r runs on nodes[r]:
//
//	Cost = Σ_{steps n} max_{(a,b) ∈ S_n} Hops(nodes[a], nodes[b])
//
// The schedule's pair ranks must all be in [0, len(nodes)). The fast path
// compiles the schedule's node pairs down to distinct leaf-switch pairs
// (leafSchedule, cached per (schedule, rank→leaf runs)) and evaluates Hops once
// per pair; a reference state (cluster.NewReference) takes the uncached
// node-pair loop. Steps slices must not be mutated after being costed
// (ScheduleFor's memoized schedules satisfy this by contract).
func JobCost(st *cluster.State, nodes []int, steps []collective.Step) (float64, error) {
	if st.Reference() {
		return jobCostRef(st, nodes, steps)
	}
	if len(steps) == 0 {
		return 0, nil
	}
	ls, err := leafSchedFor(st, nodes, steps)
	if err != nil {
		return 0, err
	}
	if ls == nil { // repeated or foreign node id: only the reference loops price it
		return jobCostRef(st, nodes, steps)
	}
	return ls.eval(st, false, false, 0), nil
}

// jobCostRef is the uncached reference implementation of JobCost, kept for
// differential equivalence checks (a reference state routes all costing
// through it). It is no longer a size fallback: every topology gets a
// layout, so the fast kernel handles any leaf count.
func jobCostRef(st *cluster.State, nodes []int, steps []collective.Step) (float64, error) {
	total := 0.0
	var prevPairs *collective.Pair
	prevMax := 0.0
	for sIdx, step := range steps {
		if len(step.Pairs) > 0 && prevPairs == &step.Pairs[0] {
			total += prevMax
			continue
		}
		max := 0.0
		for _, p := range step.Pairs {
			if p.A < 0 || p.A >= len(nodes) || p.B < 0 || p.B >= len(nodes) {
				return 0, fmt.Errorf("costmodel: step %d pair (%d,%d) out of range for %d nodes",
					sIdx, p.A, p.B, len(nodes))
			}
			if h := Hops(st, nodes[p.A], nodes[p.B]); h > max {
				max = h
			}
		}
		if len(step.Pairs) > 0 {
			prevPairs = &step.Pairs[0]
			prevMax = max
		}
		total += max
	}
	return total, nil
}

// JobCostHopBytes is JobCost with each step weighted by its relative
// message size (hop-bytes, §5.3): vector-doubling steps that move more data
// contribute proportionally more. baseMsgSize scales all steps (use 1 for a
// relative comparison).
func JobCostHopBytes(st *cluster.State, nodes []int, steps []collective.Step, baseMsgSize float64) (float64, error) {
	if st.Reference() {
		return jobCostHopBytesRef(st, nodes, steps, baseMsgSize)
	}
	if len(steps) == 0 {
		return 0, nil
	}
	ls, err := leafSchedFor(st, nodes, steps)
	if err != nil {
		return 0, err
	}
	if ls == nil {
		return jobCostHopBytesRef(st, nodes, steps, baseMsgSize)
	}
	return ls.eval(st, false, true, baseMsgSize), nil
}

// jobCostHopBytesRef is the uncached reference implementation of
// JobCostHopBytes.
func jobCostHopBytesRef(st *cluster.State, nodes []int, steps []collective.Step, baseMsgSize float64) (float64, error) {
	total := 0.0
	var prevPairs *collective.Pair
	prevMax := 0.0
	for sIdx, step := range steps {
		if len(step.Pairs) > 0 && prevPairs == &step.Pairs[0] {
			total += prevMax * step.MsgSize * baseMsgSize
			continue
		}
		max := 0.0
		for _, p := range step.Pairs {
			if p.A < 0 || p.A >= len(nodes) || p.B < 0 || p.B >= len(nodes) {
				return 0, fmt.Errorf("costmodel: step %d pair (%d,%d) out of range for %d nodes",
					sIdx, p.A, p.B, len(nodes))
			}
			if h := Hops(st, nodes[p.A], nodes[p.B]); h > max {
				max = h
			}
		}
		if len(step.Pairs) > 0 {
			prevPairs = &step.Pairs[0]
			prevMax = max
		}
		total += max * step.MsgSize * baseMsgSize
	}
	return total, nil
}

// PatternCost computes Eq. 6 for the pattern over the allocation, building
// the schedule internally (memoized per pattern and size).
func PatternCost(st *cluster.State, nodes []int, p collective.Pattern) (float64, error) {
	steps, err := ScheduleFor(p, len(nodes))
	if err != nil {
		return 0, err
	}
	return JobCost(st, nodes, steps)
}

// CandidateCost evaluates what Eq. 6 would be if the job were placed on the
// candidate nodes, with the job's own nodes counting towards contention as
// in Figure 5: CandidateCostMode under the paper's effective-hops mode.
func CandidateCost(st *cluster.State, job cluster.JobID, class cluster.Class,
	nodes []int, p collective.Pattern) (float64, error) {
	return CandidateCostMode(st, job, class, nodes, p, ModeEffectiveHops)
}

// ValidateCandidate runs cluster's validator over a candidate placement
// with a pooled scratch, so it stays a pure read of the state. A
// selector-built placement that passes is stamped: pricing and committing
// it against the unchanged state skip the node scan.
func ValidateCandidate(st *cluster.State, job cluster.JobID, pl *cluster.Placement) error {
	sc := buildScratchPool.Get().(*buildScratch)
	err := pl.Validate(st, job, &sc.scan)
	buildScratchPool.Put(sc)
	if err != nil {
		return fmt.Errorf("costmodel: candidate allocate: %w", err)
	}
	return nil
}

// CandidateCostReadOnly reports whether CandidateCost and
// CandidateCostMode are pure reads of st (the overlay fast path) and
// therefore safe to call from concurrent goroutines over it. False means
// candidate costing tentatively mutates the state (a reference state) and
// callers must serialize, and list a free-rank placement before pricing
// moves the generation its runs are bound to.
func CandidateCostReadOnly(st *cluster.State) bool {
	return !st.Reference()
}

// KernelPath names the cost-evaluation policy pricing over st takes:
// "aggregated" for the compiled kernels, where schedules touching at least
// AggTouchedLeaves leaves on layouts with a usable aggregation level
// collapse cross-subtree blocks while narrower ones take the flat leaf-pair
// scans; "reference" for a reference state, priced by the uncached
// node-pair loops. There is no per-topology size fallback, and surfacing
// the path, rather than silently falling back, is what lets sweeps and
// operators verify large machines really run the kernel they are
// benchmarking.
func KernelPath(st *cluster.State) string {
	if st.Reference() {
		return "reference"
	}
	return "aggregated"
}

// RuntimeRatio returns Cost_jobaware / Cost_default with the paper's
// implicit guards: if the reference cost is zero (single-node job or empty
// machine), the ratio is 1.
func RuntimeRatio(jobAware, def float64) float64 {
	if def <= 0 {
		return 1
	}
	return jobAware / def
}

// ModifiedRuntime applies Eq. 7 for a single-pattern job:
//
//	T' = T_compute + T_comm * Cost_jobaware / Cost_default
//
// where T_comm = base * commFrac and T_compute = base * (1 - commFrac).
func ModifiedRuntime(base float64, commFrac float64, jobAware, def float64) float64 {
	if commFrac <= 0 {
		return base
	}
	if commFrac > 1 {
		commFrac = 1
	}
	return base*(1-commFrac) + base*commFrac*RuntimeRatio(jobAware, def)
}

// ModifiedRuntimeMix applies Eq. 7 componentwise for a mixed-pattern job
// (§6.2): each communication component scales by its own cost ratio.
// ratios[k] is Cost_jobaware/Cost_default for mix.Comms[k].
func ModifiedRuntimeMix(base float64, mix collective.Mix, ratios []float64) (float64, error) {
	if len(ratios) != len(mix.Comms) {
		return 0, fmt.Errorf("costmodel: %d ratios for %d components", len(ratios), len(mix.Comms))
	}
	t := base * mix.ComputeFrac
	for k, c := range mix.Comms {
		t += base * c.Frac * ratios[k]
	}
	return t, nil
}
