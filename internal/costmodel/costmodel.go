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

// JobCost evaluates Eq. 6 under mode for a job already allocated, rank r
// on nodes[r], communicating in pattern p:
//
//	Cost = Σ_{steps n} max_{(a,b) ∈ S_n} Hops(nodes[a], nodes[b])
//
// It prices with a Scratch of its own; Scratch.JobCost is the same with
// the caller's.
func JobCost(st *cluster.State, nodes []int, p collective.Pattern, mode Mode) (float64, error) {
	return new(Scratch).JobCost(st, nodes, p, mode)
}

// JobCost is the package's JobCost in sc. The fast path walks the
// pattern's blocks once over the list's rank→leaf runs and evaluates Hops
// once per distinct leaf pair. A reference state (cluster.NewReference),
// and a list the run view cannot express (one that repeats a node id or
// names one outside the topology), take the node-pair loop.
func (sc *Scratch) JobCost(st *cluster.State, nodes []int, p collective.Pattern, mode Mode) (float64, error) {
	if err := checkMode(mode); err != nil {
		return 0, err
	}
	if !st.Reference() && len(nodes) > 0 {
		lay, pl := st.Topology().Layout(), cluster.NewPlacement(nodes)
		if pl.Reduce(lay, &sc.scan) {
			blocks, err := blocksFor(p, len(nodes))
			if err != nil {
				return 0, err
			}
			return sc.price(st, lay, pl.Runs(), blocks, mode, false)
		}
	}
	steps, err := ScheduleFor(p, len(nodes))
	if err != nil {
		return 0, err
	}
	return costRef(st, nodes, steps, mode)
}

// costRef is the node-pair reference loop of every mode: per step the max
// over its pairs of Hops, or of the distance alone, summed over steps, a
// step weighted by its MsgSize under hop-bytes. A step that shares the
// previous non-empty step's Pairs re-charges that step's max. It prices
// every evaluation over a reference state, and the lists the walk cannot
// express; the differential checks hold the walk to it bit for bit.
func costRef(st *cluster.State, nodes []int, steps []collective.Step, mode Mode) (float64, error) {
	topo := st.Topology()
	total, prevMax := 0.0, 0.0
	var prevPairs *collective.Pair
	for sIdx, step := range steps {
		max := prevMax
		if len(step.Pairs) == 0 || prevPairs != &step.Pairs[0] {
			max = 0
			for _, p := range step.Pairs {
				if p.A < 0 || p.A >= len(nodes) || p.B < 0 || p.B >= len(nodes) {
					return 0, fmt.Errorf("costmodel: step %d pair (%d,%d) out of range for %d nodes",
						sIdx, p.A, p.B, len(nodes))
				}
				var h float64
				if mode == ModeDistanceOnly {
					h = float64(topo.Distance(nodes[p.A], nodes[p.B]))
				} else {
					h = Hops(st, nodes[p.A], nodes[p.B])
				}
				if h > max {
					max = h
				}
			}
			if len(step.Pairs) > 0 {
				prevPairs, prevMax = &step.Pairs[0], max
			}
		}
		if mode == ModeHopBytes {
			total += max * step.MsgSize
		} else {
			total += max
		}
	}
	return total, nil
}

// Validate runs cluster's validator over a candidate placement with sc's
// marks, so it stays a pure read of the state. A selector-built placement
// that passes is stamped: pricing and committing it against the unchanged
// state skip the node scan.
func (sc *Scratch) Validate(st *cluster.State, job cluster.JobID, pl *cluster.Placement) error {
	if err := pl.Validate(st, job, &sc.scan); err != nil {
		return fmt.Errorf("costmodel: candidate allocate: %w", err)
	}
	return nil
}

// CandidateCostReadOnly reports whether PlacementCostMode and
// CandidateCostMode are pure reads of st (the overlay fast path) and
// therefore safe to call from concurrent goroutines over it. False means
// candidate costing tentatively mutates the state (a reference state) and
// callers must serialize, and list a free-rank placement before pricing
// moves the generation its runs are bound to.
func CandidateCostReadOnly(st *cluster.State) bool {
	return !st.Reference()
}

// KernelPath names the cost-evaluation path pricing over st takes:
// "aggregated" for the one-pass fast path, which walks a schedule over the
// placement's leaf runs and prices each distinct leaf pair once (the name
// predates the walk and is kept because sweep CSVs and their digests carry
// it); "reference" for a reference state, priced by the node-pair loop.
// There is no per-topology size fallback, and surfacing the path, rather
// than silently falling back, is what lets sweeps and operators verify
// large machines really run the kernel they are benchmarking.
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
