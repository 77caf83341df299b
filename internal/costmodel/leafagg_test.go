package costmodel

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// leafAggState builds a small, partially loaded state, priced on the fast
// path.
func leafAggState(t *testing.T) *cluster.State {
	t.Helper()
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 4, Fanouts: []int{4, 2}})
	st := cluster.New(topo)
	if cluster.LayoutOf(topo) == nil {
		t.Fatal("fixture topology unexpectedly has no layout")
	}
	// Resident comm job across two leaves makes contention non-trivial.
	if err := st.Allocate(900, cluster.CommIntensive, []int{0, 1, 4}); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLeafScheduleRegrouping drives the walk through every step shape it
// distinguishes — ordinary compute steps, empty steps, repeated steps
// (shared Pairs backing array), self pairs, and per-step message sizes —
// and requires bit-identical totals in every mode against the reference
// node-pair loop. This is the executable form of the DESIGN §7 regrouping
// argument: max over node pairs = max over distinct leaf pairs.
func TestLeafScheduleRegrouping(t *testing.T) {
	st := leafAggState(t)
	nodes := []int{2, 3, 6, 10, 14, 5}
	shared := []collective.Pair{{A: 0, B: 3}, {A: 1, B: 2}, {A: 4, B: 5}}
	steps := []collective.Step{
		{Pairs: []collective.Pair{{A: 0, B: 1}, {A: 2, B: 3}}, MsgSize: 1},
		{Pairs: nil, MsgSize: 4},                             // empty: contributes 0, must not disturb the repeat detection
		{Pairs: shared, MsgSize: 2},                          // compute
		{Pairs: shared, MsgSize: 8},                          // repeat: same backing array, different weight
		{Pairs: []collective.Pair{{A: 2, B: 2}}, MsgSize: 1}, // self pair only: max stays 0
		{Pairs: []collective.Pair{{A: 5, B: 0}, {A: 1, B: 1}}, MsgSize: 0.5},
	}
	for _, mode := range allModes {
		w := priceSteps(t, st, nodes, steps, mode)
		checkNonZero(t, "regrouping fixture, "+mode.String(), w)
	}
}

// TestPairRangeErrorParity checks that an out-of-range schedule pair is an
// error through the walk and through the reference loop alike, in the same
// step.
func TestPairRangeErrorParity(t *testing.T) {
	st := leafAggState(t)
	nodes := []int{2, 3}
	steps := []collective.Step{
		{Pairs: []collective.Pair{{A: 0, B: 1}}, MsgSize: 1},
		{Pairs: []collective.Pair{{A: 1, B: 2}}, MsgSize: 1}, // B out of range
	}
	_, _, fastErr := priceCold(st, nodes, collective.Compact(steps), ModeEffectiveHops, false)
	_, refErr := costRef(st, nodes, steps, ModeEffectiveHops)
	if fastErr == nil || refErr == nil {
		t.Fatalf("expected range errors, got fast=%v ref=%v", fastErr, refErr)
	}
	for _, err := range []error{fastErr, refErr} {
		if !strings.Contains(err.Error(), "step 1 ") {
			t.Errorf("range error %q does not name step 1", err)
		}
	}
}

// TestCandidateValidationErrorParity checks that the overlay fast path's
// candidate validation reproduces cluster.Allocate's rejections verbatim:
// for every way a candidate can be invalid, CandidateCostMode must return the
// same error string whether it validates read-only (fast) or actually
// attempts the allocation (reference).
func TestCandidateValidationErrorParity(t *testing.T) {
	st := leafAggState(t)
	if err := st.Drain(15); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Fail(14); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		job   cluster.JobID
		nodes []int
	}{
		{"negative job", -1, []int{2, 3}},
		{"already allocated", 900, []int{2, 3}},
		{"node out of range", 1, []int{2, 99}},
		{"node listed twice", 1, []int{2, 3, 2}},
		{"node busy", 1, []int{2, 0}},
		{"node drained", 1, []int{2, 15}},
		{"node failed", 1, []int{2, 14}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := st.CloneAs(true)
			_, fastErr := CandidateCostMode(st, tc.job, cluster.CommIntensive, tc.nodes, collective.RD, ModeEffectiveHops)
			_, refErr := CandidateCostMode(ref, tc.job, cluster.CommIntensive, tc.nodes, collective.RD, ModeEffectiveHops)
			if fastErr == nil || refErr == nil {
				t.Fatalf("expected errors, got fast=%v ref=%v", fastErr, refErr)
			}
			if fastErr.Error() != refErr.Error() {
				t.Errorf("validation error diverges:\n fast: %s\n  ref: %s", fastErr, refErr)
			}
			// Neither path may leave the candidate allocated.
			if tc.job != 900 && (st.Allocation(tc.job) != nil || ref.Allocation(tc.job) != nil) {
				t.Errorf("candidate job %d left allocated", tc.job)
			}
		})
	}
}
