package costmodel

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

func TestParseModeAndString(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
	}{
		{"effective-hops", ModeEffectiveHops},
		{"hops", ModeEffectiveHops},
		{"", ModeEffectiveHops},
		{"distance-only", ModeDistanceOnly},
		{"distance", ModeDistanceOnly},
		{"hop-bytes", ModeHopBytes},
		{"HopBytes", ModeHopBytes},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Error("ParseMode(nope): expected error")
	}
	for _, m := range []Mode{ModeEffectiveHops, ModeDistanceOnly, ModeHopBytes, Mode(77)} {
		if m.String() == "" {
			t.Errorf("empty String for %d", uint8(m))
		}
	}
}

// TestJobCostModeAgreement pins the three modes on Figure 5's state and
// holds each to the reference loop on a reference clone.
func TestJobCostModeAgreement(t *testing.T) {
	st := figure5State(t)
	nodes := []int{0, 1, 4, 5}
	// RHVD(4) over a 2+2 split has one cross step (d=4, Hops 11.5) and one
	// intra step (d=2, Hops 4, message size 2).
	want := map[Mode]float64{ModeEffectiveHops: 15.5, ModeHopBytes: 19.5, ModeDistanceOnly: 6}
	for mode, w := range want {
		got, err := JobCost(st, nodes, collective.RHVD, mode)
		if err != nil || !approx(got, w) {
			t.Fatalf("%v = %v, %v; want %v", mode, got, err, w)
		}
		priceJob(t, st, nodes, collective.RHVD, mode).check(t, mode.String())
	}
	if _, err := JobCost(st, nodes, collective.RHVD, Mode(77)); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestCandidateCostMode(t *testing.T) {
	st := cluster.New(topology.PaperExample())
	free := st.FreeTotal()
	for _, mode := range []Mode{ModeEffectiveHops, ModeDistanceOnly, ModeHopBytes} {
		cost, err := CandidateCostMode(st, 1, cluster.CommIntensive, []int{0, 1, 4, 5},
			collective.RD, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if cost <= 0 {
			t.Fatalf("%v: cost %v", mode, cost)
		}
		if st.FreeTotal() != free {
			t.Fatalf("%v: state not rolled back", mode)
		}
	}
	if _, err := CandidateCostMode(st, 1, cluster.CommIntensive, nil, collective.RD, ModeEffectiveHops); err == nil {
		t.Error("empty candidate accepted")
	}
	if _, err := CandidateCostMode(st, 1, cluster.CommIntensive, []int{0, 1}, collective.Pattern(99), ModeEffectiveHops); err == nil {
		t.Error("bad pattern accepted")
	}
	// Bad pattern rolled back too.
	if st.FreeTotal() != free {
		t.Fatal("bad-pattern path leaked allocation")
	}
}

func TestPatternCost(t *testing.T) {
	st := figure5State(t)
	cost, err := JobCost(st, []int{0, 1, 4, 5}, collective.RD, ModeEffectiveHops)
	if err != nil || cost <= 0 {
		t.Fatalf("JobCost = %v, %v", cost, err)
	}
	if _, err := JobCost(st, []int{6, 7}, collective.Pattern(99), ModeEffectiveHops); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := JobCost(st, nil, collective.RD, ModeEffectiveHops); err == nil {
		t.Error("empty node list accepted")
	}
	// Single-node jobs have an empty schedule and zero cost for any pattern.
	if cost, err := JobCost(st, []int{6}, collective.Pattern(99), ModeEffectiveHops); err != nil || cost != 0 {
		t.Errorf("single-node cost = %v, %v; want 0, nil", cost, err)
	}
}

// Ring schedules repeat one pair set P-1 times; the memoised step cost must
// equal the naive per-step evaluation and stay fast at scale.
func TestRingCostMemoization(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 64, Fanouts: []int{8}})
	st := cluster.New(topo)
	nodes := make([]int, 256)
	for i := range nodes {
		nodes[i] = i * 2
	}
	if err := st.Allocate(1, cluster.CommIntensive, nodes); err != nil {
		t.Fatal(err)
	}
	steps := collective.Ring.MustSchedule(len(nodes))
	fast, err := JobCost(st, nodes, collective.Ring, ModeEffectiveHops)
	if err != nil {
		t.Fatal(err)
	}
	// Naive evaluation: per-step max without memoisation.
	naive := 0.0
	for _, step := range steps {
		max := 0.0
		for _, p := range step.Pairs {
			if h := Hops(st, nodes[p.A], nodes[p.B]); h > max {
				max = h
			}
		}
		naive += max
	}
	if math.Abs(fast-naive) > 1e-9 {
		t.Fatalf("memoised %v != naive %v", fast, naive)
	}
	// Large ring must evaluate quickly (memoisation makes it O(P), not O(P²)).
	big := make([]int, 512)
	for i := range big {
		big[i] = i
	}
	start := time.Now()
	if _, err := JobCost(st, big, collective.Ring, ModeEffectiveHops); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("Ring(512) cost took %v", d)
	}
}
