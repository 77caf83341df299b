package costmodel

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
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

// TestScheduleForMemoized pins the schedule memo: repeated calls return the
// identical backing array (so a ring's repeat steps keep sharing one pair
// list), and the reference counterpart builds fresh.
func TestScheduleForMemoized(t *testing.T) {
	a, err := ScheduleFor(collective.RD, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScheduleFor(collective.RD, 16)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0].Pairs[0] != &b[0].Pairs[0] {
		t.Error("memoized schedules do not share backing arrays")
	}
	want := collective.RD.MustSchedule(16)
	if len(a) != len(want) {
		t.Fatalf("memoized schedule has %d steps, want %d", len(a), len(want))
	}
	for k := range want {
		if len(a[k].Pairs) != len(want[k].Pairs) || a[k].MsgSize != want[k].MsgSize {
			t.Fatalf("step %d differs from a fresh build", k)
		}
		for i := range want[k].Pairs {
			if a[k].Pairs[i] != want[k].Pairs[i] {
				t.Fatalf("step %d pair %d = %+v, want %+v", k, i, a[k].Pairs[i], want[k].Pairs[i])
			}
		}
	}
	c, err := scheduleRef(collective.RD, 16)
	if err != nil {
		t.Fatal(err)
	}
	if &c[0].Pairs[0] == &a[0].Pairs[0] {
		t.Error("scheduleRef returned the memoized schedule")
	}
}

// TestFastPathNeverMaterialisesPairs pins the memo's laziness: pricing a
// fresh (pattern, size) leaves its entry with blocks only; the first
// ScheduleFor call lists the pairs, once, for every later caller; and the
// price is the same bit for bit before, during and after. Run it under
// -race: the ScheduleFor and pricing callers are concurrent.
func TestFastPathNeverMaterialisesPairs(t *testing.T) {
	st := leafAggState(t)
	const p = collective.RHVD
	free := []int{2, 3, 5, 6, 7, 8, 9, 10, 12, 13, 16, 17, 21, 22, 24, 25, 26, 28, 29}
	n := 13 // the first size from here that nothing has priced yet (-count reruns this test)
	entry := func() *memoSchedule { return schedules.lookup(p, n) }
	for entry() != nil {
		if n++; n > len(free) {
			t.Skipf("%v is memoised at every size this test can price", p)
		}
	}
	nodes := free[:n]
	price := func() uint64 {
		c, err := CandidateCostMode(st, 7, cluster.CommIntensive, nodes, p, ModeEffectiveHops)
		if err != nil {
			t.Error(err)
		}
		return math.Float64bits(c)
	}
	before := price()
	m := entry()
	if m == nil {
		t.Fatal("pricing left no memo entry (is the memo full?)")
	}
	if len(m.blocks) == 0 || m.steps != nil {
		t.Fatalf("after pricing the entry has %d block steps and %d pair-list steps, want blocks only", len(m.blocks), len(m.steps))
	}

	const callers = 8
	first := make([]*collective.Pair, callers)
	prices := make([]uint64, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			steps, err := ScheduleFor(p, n)
			if err != nil || len(steps) == 0 {
				t.Errorf("ScheduleFor: %d steps, %v", len(steps), err)
				return
			}
			first[g], prices[g] = &steps[0].Pairs[0], price()
		}()
	}
	wg.Wait()
	if entry() != m || m.steps == nil {
		t.Fatal("ScheduleFor did not list the pairs on the memo entry pricing made")
	}
	for g := range first {
		if first[g] != &m.steps[0].Pairs[0] {
			t.Errorf("caller %d got a pair list of its own", g)
		}
		if prices[g] != before {
			t.Errorf("caller %d priced %x, want %x as before the pairs were listed", g, prices[g], before)
		}
	}
	if after := price(); after != before {
		t.Errorf("price %x after listing the pairs, %x before", after, before)
	}
	want := p.MustSchedule(n)
	for k := range want {
		if !slices.Equal(m.steps[k].Pairs, want[k].Pairs) || m.steps[k].MsgSize != want[k].MsgSize {
			t.Fatalf("step %d of the listed pairs differs from a fresh build", k)
		}
	}
}
