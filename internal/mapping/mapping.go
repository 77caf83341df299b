// Package mapping implements process (rank) mapping on top of node
// allocation — the first extension the paper names as future work in §7:
// "Process mapping after node allocation can provide further
// improvements". Given an allocated node set and the job's collective
// pattern, it permutes the rank→node assignment to reduce the Eq. 6
// communication cost without changing which nodes the job holds.
//
// Two strategies are provided:
//
//   - LeafBlocking sorts nodes so that ranks sharing a leaf switch are
//     contiguous (and leaves appear in descending block size). For the
//     recursive-doubling family this aligns low-distance exchange steps
//     with intra-switch pairs — the same intuition as balanced allocation,
//     applied after the fact.
//   - PairwiseRefine then hill-climbs: it repeatedly tries swapping two
//     ranks and keeps swaps that lower the cost, until a local optimum or
//     the swap budget is exhausted.
package mapping

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
)

// Options bounds the refinement.
type Options struct {
	// MaxSweeps bounds the hill-climbing passes over all rank pairs
	// (default 2). Zero keeps the default; negative disables refinement
	// (LeafBlocking only).
	MaxSweeps int
	// MaxRanksForRefine disables pairwise refinement above this job size to
	// keep mapping O(n²) work bounded (default 256).
	MaxRanksForRefine int
}

func (o Options) withDefaults() Options {
	if o.MaxSweeps == 0 {
		o.MaxSweeps = 2
	}
	if o.MaxRanksForRefine == 0 {
		o.MaxRanksForRefine = 256
	}
	return o
}

// LeafBlocking reorders nodes so ranks on the same leaf are contiguous,
// with larger per-leaf blocks first (mirroring balanced allocation's
// order). The input slice is not modified.
func LeafBlocking(st *cluster.State, nodes []int) []int {
	topo := st.Topology()
	byLeaf := make(map[int][]int)
	for _, id := range nodes {
		l := topo.LeafOf(id)
		byLeaf[l] = append(byLeaf[l], id)
	}
	leaves := make([]int, 0, len(byLeaf))
	for l := range byLeaf {
		leaves = append(leaves, l)
	}
	sort.Slice(leaves, func(a, b int) bool {
		la, lb := leaves[a], leaves[b]
		if len(byLeaf[la]) != len(byLeaf[lb]) {
			return len(byLeaf[la]) > len(byLeaf[lb])
		}
		return la < lb
	})
	out := make([]int, 0, len(nodes))
	for _, l := range leaves {
		ids := byLeaf[l]
		sort.Ints(ids)
		out = append(out, ids...)
	}
	return out
}

// Remap returns a rank→node assignment over the same node set with
// communication cost (Eq. 6, evaluated against the current cluster state
// with the job tentatively in place) no higher than the input order's.
func Remap(st *cluster.State, job cluster.JobID, class cluster.Class,
	nodes []int, pattern collective.Pattern, o Options) ([]int, float64, error) {
	o = o.withDefaults()
	if len(nodes) == 0 {
		return nil, 0, fmt.Errorf("mapping: empty allocation")
	}
	// Evaluate candidates with the job allocated, as the cost model
	// prescribes (Figure 5 counts the job's own nodes).
	if err := st.Allocate(job, class, nodes); err != nil {
		return nil, 0, fmt.Errorf("mapping: tentative allocate: %w", err)
	}
	defer func() { _ = st.Release(job) }()

	sc := new(costmodel.Scratch) // the hill climb's pricing scratch
	best := append([]int(nil), nodes...)
	bestCost, err := sc.JobCost(st, best, pattern, costmodel.ModeEffectiveHops)
	if err != nil {
		return nil, 0, err
	}
	blocked := LeafBlocking(st, nodes)
	blockedCost, err := sc.JobCost(st, blocked, pattern, costmodel.ModeEffectiveHops)
	if err != nil {
		return nil, 0, err
	}
	if blockedCost < bestCost {
		best, bestCost = blocked, blockedCost
	}
	if o.MaxSweeps < 0 || len(nodes) > o.MaxRanksForRefine {
		return best, bestCost, nil
	}
	// Pairwise refinement. Only swaps across leaves can change the cost.
	topo := st.Topology()
	for sweep := 0; sweep < o.MaxSweeps; sweep++ {
		improved := false
		for i := 0; i < len(best); i++ {
			for j := i + 1; j < len(best); j++ {
				if topo.LeafOf(best[i]) == topo.LeafOf(best[j]) {
					continue
				}
				best[i], best[j] = best[j], best[i]
				cost, err := sc.JobCost(st, best, pattern, costmodel.ModeEffectiveHops)
				if err != nil {
					return nil, 0, err
				}
				if cost < bestCost-1e-12 {
					bestCost = cost
					improved = true
				} else {
					best[i], best[j] = best[j], best[i]
				}
			}
		}
		if !improved {
			break
		}
	}
	return best, bestCost, nil
}
