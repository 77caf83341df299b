package costmodel

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// TestPairRangeValidationQuadrants is the regression test for the
// incomplete bounds check: the old condition (p.A < 0 || p.B >= len(nodes))
// accepted pairs with A >= len(nodes) or B < 0 and indexed out of range.
// The reference loop and the walk's block guard must reject all four
// quadrants in every mode.
func TestPairRangeValidationQuadrants(t *testing.T) {
	st := figure5State(t)
	nodes := []int{6, 7}
	bad := []collective.Pair{
		{A: -1, B: 0},
		{A: 0, B: -1}, // missed by the old check
		{A: 2, B: 0},  // missed by the old check
		{A: 0, B: 2},
	}
	for _, p := range bad {
		steps := []collective.Step{{Pairs: []collective.Pair{p}, MsgSize: 1}}
		for _, mode := range allModes {
			if _, err := costRef(st, nodes, steps, mode); err == nil ||
				!strings.Contains(err.Error(), "out of range") {
				t.Errorf("costRef(%v, pair %+v): err = %v, want out-of-range", mode, p, err)
			}
			if _, _, err := priceCold(st, nodes, collective.Compact(steps), mode, false); err == nil ||
				!strings.Contains(err.Error(), "out of range") {
				t.Errorf("price(%v, pair %+v): err = %v, want out-of-range", mode, p, err)
			}
		}
	}
}

// TestScheduleForIsAFreshBuild pins ScheduleFor as the schedule built
// afresh: the steps of Pattern.Schedule, in a backing array of their own on
// every call, so no caller can reach another's (or a memo's) pair lists.
func TestScheduleForIsAFreshBuild(t *testing.T) {
	a, err := ScheduleFor(collective.RD, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScheduleFor(collective.RD, 16)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0].Pairs[0] == &b[0].Pairs[0] {
		t.Error("two ScheduleFor calls share a pair list")
	}
	want := collective.RD.MustSchedule(16)
	if len(a) != len(want) {
		t.Fatalf("schedule has %d steps, want %d", len(a), len(want))
	}
	for k := range want {
		if !slices.Equal(a[k].Pairs, want[k].Pairs) || a[k].MsgSize != want[k].MsgSize {
			t.Fatalf("step %d differs from Pattern.Schedule", k)
		}
	}
}

// TestReferencePricingSkipsTheMemo: a reference state prices the fresh
// build in JobCost and in PlacementCostMode alike, so the reference side of
// the differential runs neither reads nor fills the schedule memo.
func TestReferencePricingSkipsTheMemo(t *testing.T) {
	st := cluster.NewReference(topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{4}}))
	const p = collective.Stencil
	n := 2
	for schedules.lookup(p, n) != nil {
		if n++; n > st.Topology().NumNodes() {
			t.Skipf("%v is memoised at every size this test can price", p)
		}
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	if _, err := JobCost(st, nodes, p, ModeEffectiveHops); err != nil {
		t.Fatal(err)
	}
	if _, err := CandidateCostMode(st, 1, cluster.CommIntensive, nodes, p, ModeEffectiveHops); err != nil {
		t.Fatal(err)
	}
	if schedules.lookup(p, n) != nil {
		t.Errorf("pricing %v/%d on a reference state filled the memo", p, n)
	}
}
