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

// checkMode rejects a mode outside the three defined.
func checkMode(mode Mode) error {
	switch mode {
	case ModeEffectiveHops, ModeHopBytes, ModeDistanceOnly:
		return nil
	}
	return fmt.Errorf("costmodel: unknown mode %d", uint8(mode))
}

// CandidateCostMode is Scratch.PlacementCostMode for a bare rank-ordered
// node list, with a Scratch of its own.
func CandidateCostMode(st *cluster.State, job cluster.JobID, class cluster.Class,
	nodes []int, p collective.Pattern, mode Mode) (float64, error) {
	return new(Scratch).CandidateCostMode(st, job, class, nodes, p, mode)
}

// CandidateCostMode is the package's CandidateCostMode in sc.
func (sc *Scratch) CandidateCostMode(st *cluster.State, job cluster.JobID, class cluster.Class,
	nodes []int, p collective.Pattern, mode Mode) (float64, error) {
	pl := cluster.NewPlacement(nodes)
	return sc.PlacementCostMode(st, job, class, &pl, p, mode)
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
// never lists a placement, and with a warm sc allocates nothing.
func (sc *Scratch) PlacementCostMode(st *cluster.State, job cluster.JobID, class cluster.Class,
	pl *cluster.Placement, p collective.Pattern, mode Mode) (float64, error) {
	if err := checkMode(mode); err != nil {
		return 0, err
	}
	if st.Reference() {
		nodes := pl.Nodes() // listed before the tentative allocation moves the generation
		if err := st.AllocatePlacement(job, class, pl); err != nil {
			return 0, fmt.Errorf("costmodel: candidate allocate: %w", err)
		}
		steps, err := scheduleRef(p, pl.Len())
		var cost float64
		if err == nil {
			cost, err = costRef(st, nodes, steps, mode)
		}
		if rerr := st.Release(job); rerr != nil && err == nil {
			err = rerr
		}
		return cost, err
	}
	if err := sc.Validate(st, job, pl); err != nil {
		return 0, err
	}
	blocks, err := blocksFor(p, pl.Len())
	if err != nil {
		return 0, err
	}
	// Only a communication-intensive candidate changes the comm counters; a
	// compute-intensive one costs against the state as-is. A validated
	// placement lists distinct in-range nodes, so its runs are at hand: its
	// own, or those the validation just left in sc.scan.
	return sc.price(st, cluster.LayoutOf(st.Topology()), pl.Runs(), blocks, mode, class == cluster.CommIntensive)
}
