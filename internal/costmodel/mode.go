package costmodel

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/collective"
)

// Mode selects the cost function used to evaluate allocations.
type Mode uint8

const (
	// ModeEffectiveHops is the paper's Eq. 6: per-step max of
	// d(i,j)·(1+C(i,j)).
	ModeEffectiveHops Mode = iota
	// ModeDistanceOnly is the ablation that ignores contention:
	// per-step max of d(i,j). It isolates how much of the algorithms'
	// benefit comes from the contention factor.
	ModeDistanceOnly
	// ModeHopBytes weights each step by its relative message size,
	// the hop-bytes estimate of §5.3.
	ModeHopBytes
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeEffectiveHops:
		return "effective-hops"
	case ModeDistanceOnly:
		return "distance-only"
	case ModeHopBytes:
		return "hop-bytes"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ParseMode converts a case-insensitive mode name.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "effective-hops", "hops", "":
		return ModeEffectiveHops, nil
	case "distance-only", "distance":
		return ModeDistanceOnly, nil
	case "hop-bytes", "hopbytes":
		return ModeHopBytes, nil
	default:
		return 0, fmt.Errorf("costmodel: unknown mode %q", s)
	}
}

// JobCostMode evaluates the job cost under the chosen mode.
func JobCostMode(st *cluster.State, nodes []int, steps []collective.Step, mode Mode) (float64, error) {
	switch mode {
	case ModeEffectiveHops:
		return JobCost(st, nodes, steps)
	case ModeHopBytes:
		return JobCostHopBytes(st, nodes, steps, 1)
	case ModeDistanceOnly:
		if st.Reference() {
			return jobCostDistanceRef(st, nodes, steps)
		}
		if len(steps) == 0 {
			return 0, nil
		}
		ls, err := leafSchedFor(st, nodes, steps)
		if err != nil {
			return 0, err
		}
		if ls == nil {
			return jobCostDistanceRef(st, nodes, steps)
		}
		return ls.evalDistance(), nil
	default:
		return 0, fmt.Errorf("costmodel: unknown mode %d", uint8(mode))
	}
}

// jobCostDistanceRef is the uncached reference implementation of the
// distance-only ablation: the per-step max of the integer d(i,j), summed
// over steps.
func jobCostDistanceRef(st *cluster.State, nodes []int, steps []collective.Step) (float64, error) {
	topo := st.Topology()
	total := 0.0
	var prevPairs *collective.Pair
	prevMax := 0
	for sIdx, step := range steps {
		if len(step.Pairs) > 0 && prevPairs == &step.Pairs[0] {
			total += float64(prevMax)
			continue
		}
		max := 0
		for _, p := range step.Pairs {
			if p.A < 0 || p.A >= len(nodes) || p.B < 0 || p.B >= len(nodes) {
				return 0, fmt.Errorf("costmodel: step %d pair (%d,%d) out of range for %d nodes",
					sIdx, p.A, p.B, len(nodes))
			}
			if d := topo.Distance(nodes[p.A], nodes[p.B]); d > max {
				max = d
			}
		}
		if len(step.Pairs) > 0 {
			prevPairs = &step.Pairs[0]
			prevMax = max
		}
		total += float64(max)
	}
	return total, nil
}

// CandidateCostMode is PlacementCostMode for a bare rank-ordered node list.
func CandidateCostMode(st *cluster.State, job cluster.JobID, class cluster.Class,
	nodes []int, p collective.Pattern, mode Mode) (float64, error) {
	pl := cluster.NewPlacement(nodes)
	return PlacementCostMode(st, job, class, &pl, p, mode)
}

// PlacementCostMode evaluates what the job's cost under the chosen mode
// would be on the placement, the job's own nodes counting towards
// contention. The state is left unchanged: the fast path validates the
// placement exactly as Allocate would (cluster.Placement.Validate) and then overlays
// its per-leaf node counts onto the live comm counters during evaluation,
// so it never mutates the state (see CandidateCostReadOnly). On a reference
// state it tentatively allocates, costs against a freshly built schedule,
// and rolls back; that mutates the state (two generation bumps, so the
// placement goes on as a list, scanned on every call) and must not run
// concurrently with other evaluations of the same state. The fast path
// never lists a placement.
func PlacementCostMode(st *cluster.State, job cluster.JobID, class cluster.Class,
	pl *cluster.Placement, p collective.Pattern, mode Mode) (float64, error) {
	if pl.Len() == 0 {
		return 0, fmt.Errorf("costmodel: empty candidate allocation")
	}
	if st.Reference() {
		nodes := pl.Nodes() // listed before the tentative allocation moves the generation
		if err := st.AllocatePlacement(job, class, pl); err != nil {
			return 0, fmt.Errorf("costmodel: candidate allocate: %w", err)
		}
		steps, err := scheduleRef(p, pl.Len())
		var cost float64
		if err == nil {
			cost, err = JobCostMode(st, nodes, steps, mode)
		}
		if rerr := st.Release(job); rerr != nil && err == nil {
			err = rerr
		}
		return cost, err
	}
	ls, err := candidateSched(st, job, pl, p)
	if err != nil || ls == nil {
		return 0, err
	}
	// Only a communication-intensive candidate changes the comm counters;
	// a compute-intensive one costs against the state as-is.
	overlay := class == cluster.CommIntensive
	switch mode {
	case ModeEffectiveHops:
		return ls.eval(st, overlay, false, 0), nil
	case ModeHopBytes:
		return ls.eval(st, overlay, true, 1), nil
	case ModeDistanceOnly:
		// Distance ignores contention, so the overlay is irrelevant.
		return ls.evalDistance(), nil
	default:
		return 0, fmt.Errorf("costmodel: unknown mode %d", uint8(mode))
	}
}

// candidateSched validates the placement and returns its compiled schedule
// for p, nil if that schedule has no steps. One pooled scratch serves both:
// a wrapped list's runs stay in it from the validation to the compile.
func candidateSched(st *cluster.State, job cluster.JobID, pl *cluster.Placement, p collective.Pattern) (*leafSchedule, error) {
	sc := buildScratchPool.Get().(*buildScratch)
	defer buildScratchPool.Put(sc)
	if err := pl.Validate(st, job, &sc.scan); err != nil {
		return nil, fmt.Errorf("costmodel: candidate allocate: %w", err)
	}
	// A validated placement lists distinct in-range nodes, so it compiles.
	return sc.leafSched(cluster.LayoutOf(st.Topology()), pl, p, nil)
}
