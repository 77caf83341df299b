package netsim

import (
	"math"
	"testing"

	"repro/internal/collective"
	"repro/internal/topology"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRoute(t *testing.T) {
	topo := topology.PaperExample() // s0: n0-n3, s1: n4-n7
	n := New(topo, Options{})
	// Same leaf: just the two node links.
	r := n.route(0, 1)
	if len(r) != 2 || r[0] != 0 || r[1] != 2*1+1 {
		t.Fatalf("route(0,1) = %v", r)
	}
	// Cross leaf: node up, s0 up, s1 down, node down.
	r = n.route(0, 4)
	if len(r) != 4 {
		t.Fatalf("route(0,4) = %v, want 4 links", r)
	}
	if r[0] != 0 || r[len(r)-1] != 2*4+1 {
		t.Fatalf("route endpoints wrong: %v", r)
	}
	// Reverse direction shares no directed links.
	rev := n.route(4, 0)
	for _, a := range r {
		for _, b := range rev {
			if a == b {
				t.Fatalf("directed links shared between directions: %v vs %v", r, rev)
			}
		}
	}
}

func TestSingleExchangeTime(t *testing.T) {
	topo := topology.PaperExample()
	n := New(topo, Options{NodeBandwidth: 100e6, UplinkBandwidth: 200e6})
	// RD over 2 nodes on the same leaf: one step, 1 MB each direction,
	// bottleneck is the 100 MB/s node link: 0.01 s.
	timings, err := n.Run([]CollectiveJob{{
		Name: "J", Nodes: []int{0, 1}, Pattern: collective.RD,
		BaseBytes: 1e6, Iterations: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(timings[0].End, 0.01, 1e-6) {
		t.Fatalf("end = %v, want 0.01", timings[0].End)
	}
	if len(timings[0].IterTimes) != 1 || !approx(timings[0].IterTimes[0], 0.01, 1e-6) {
		t.Fatalf("iter times = %v", timings[0].IterTimes)
	}
}

func TestUplinkContention(t *testing.T) {
	topo := topology.PaperExample()
	n := New(topo, Options{NodeBandwidth: 100e6, UplinkBandwidth: 200e6})
	// Four simultaneous cross-switch exchanges (RD step 3 over 8 ranks
	// mapped 4+4) push 4 flows per uplink direction: each flow gets
	// 200/4 = 50 MB/s, so a 1 MB exchange takes 0.02 s instead of 0.01.
	nodes := []int{0, 1, 2, 3, 4, 5, 6, 7}
	timings, err := n.Run([]CollectiveJob{{
		Name: "J", Nodes: nodes, Pattern: collective.RD,
		BaseBytes: 1e6, Iterations: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Steps 1,2 are intra-switch (0.01 each); step 3 is cross (0.02).
	want := 0.01 + 0.01 + 0.02
	if !approx(timings[0].End, want, 1e-6) {
		t.Fatalf("end = %v, want %v", timings[0].End, want)
	}
}

// TestFigure1Shape reproduces the paper's motivating observation: J1's
// iteration time spikes while J2 shares its switches and returns to normal
// when J2 stops.
func TestFigure1Shape(t *testing.T) {
	topo := topology.Departmental() // 2 leaves × 25 nodes
	// Departmental Ethernet: the switch trunk has the same capacity as a
	// node link, so cross-switch traffic from co-located jobs contends hard.
	n := New(topo, Options{NodeBandwidth: 125e6, UplinkBandwidth: 125e6})
	// J1: 8 nodes, 4 per switch, running allgather continuously.
	j1 := CollectiveJob{
		Name:      "J1",
		Nodes:     []int{0, 1, 2, 3, 25, 26, 27, 28},
		Pattern:   collective.RHVD,
		BaseBytes: 1e6, Iterations: 150, Start: 0,
	}
	// J2: 12 nodes, 6 per switch, starts later.
	j2 := CollectiveJob{
		Name:      "J2",
		Nodes:     []int{4, 5, 6, 7, 8, 9, 29, 30, 31, 32, 33, 34},
		Pattern:   collective.RHVD,
		BaseBytes: 1e6, Iterations: 40, Start: 1.0,
	}
	timings, err := n.Run([]CollectiveJob{j1, j2})
	if err != nil {
		t.Fatal(err)
	}
	t1 := timings[0]
	if len(t1.IterTimes) != 150 {
		t.Fatalf("J1 iterations = %d, want 150", len(t1.IterTimes))
	}
	// Partition J1 iterations into those overlapping J2 and those not.
	j2End := timings[1].End
	var during, outside []float64
	for k, end := range t1.IterEnds {
		if end > 1.0 && end <= j2End+t1.IterTimes[k] {
			during = append(during, t1.IterTimes[k])
		} else {
			outside = append(outside, t1.IterTimes[k])
		}
	}
	if len(during) == 0 || len(outside) == 0 {
		t.Fatalf("no overlap partition: during=%d outside=%d (j2 end %v)", len(during), len(outside), j2End)
	}
	meanDuring := mean(during)
	meanOutside := mean(outside)
	// The fluid max-min model is conservative compared with the paper's
	// real TCP-on-Ethernet measurements (which show multi-x spikes), but
	// the shape must hold: iterations overlapping J2 are measurably slower.
	if meanDuring <= meanOutside*1.05 {
		t.Fatalf("no contention spike: during %v vs outside %v", meanDuring, meanOutside)
	}
	// ... and J1 recovers after J2 finishes: the last iteration runs at the
	// uncontended rate.
	last := t1.IterTimes[len(t1.IterTimes)-1]
	if last > meanOutside*1.01 {
		t.Fatalf("no recovery after J2: last iter %v vs baseline %v", last, meanOutside)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func TestZeroIterationsAndSingleNode(t *testing.T) {
	topo := topology.PaperExample()
	n := New(topo, Options{})
	timings, err := n.Run([]CollectiveJob{
		{Name: "empty", Nodes: []int{0}, Pattern: collective.RD, BaseBytes: 1e6, Iterations: 5, Start: 3},
		{Name: "none", Nodes: []int{1, 2}, Pattern: collective.RD, BaseBytes: 1e6, Iterations: 0, Start: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if timings[0].End != 3 || len(timings[0].IterTimes) != 5 {
		t.Fatalf("single-node job: %+v", timings[0])
	}
	if timings[1].End != 1 || len(timings[1].IterTimes) != 0 {
		t.Fatalf("zero-iteration job: %+v", timings[1])
	}
}

func TestRunErrors(t *testing.T) {
	topo := topology.PaperExample()
	n := New(topo, Options{})
	cases := []CollectiveJob{
		{Name: "noNodes", Pattern: collective.RD, BaseBytes: 1, Iterations: 1},
		{Name: "badNode", Nodes: []int{99}, Pattern: collective.RD, BaseBytes: 1, Iterations: 1},
		{Name: "badBytes", Nodes: []int{0, 1}, Pattern: collective.RD, BaseBytes: 0, Iterations: 1},
		{Name: "negIter", Nodes: []int{0, 1}, Pattern: collective.RD, BaseBytes: 1, Iterations: -1},
		{Name: "badPattern", Nodes: []int{0, 1}, Pattern: collective.Pattern(99), BaseBytes: 1, Iterations: 1},
	}
	for _, c := range cases {
		if _, err := n.Run([]CollectiveJob{c}); err == nil {
			t.Errorf("%s: expected error", c.Name)
		}
	}
}

// Sequential jobs on disjoint node sets must not affect each other.
func TestDisjointJobsIndependent(t *testing.T) {
	topo := topology.Departmental()
	n := New(topo, Options{NodeBandwidth: 100e6, UplinkBandwidth: 1e12})
	solo, err := n.Run([]CollectiveJob{{
		Name: "A", Nodes: []int{0, 1}, Pattern: collective.RD, BaseBytes: 1e6, Iterations: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	both, err := n.Run([]CollectiveJob{
		{Name: "A", Nodes: []int{0, 1}, Pattern: collective.RD, BaseBytes: 1e6, Iterations: 3},
		{Name: "B", Nodes: []int{10, 11}, Pattern: collective.RD, BaseBytes: 1e6, Iterations: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(solo[0].End, both[0].End, 1e-9) {
		t.Fatalf("disjoint job changed timing: %v vs %v", solo[0].End, both[0].End)
	}
	// With huge uplinks, same-leaf and cross-leaf behave identically.
	if !approx(both[1].End, both[0].End, 1e-9) {
		t.Fatalf("identical jobs differ: %v vs %v", both[1].End, both[0].End)
	}
}

func BenchmarkFigure1Run(b *testing.B) {
	topo := topology.Departmental()
	n := New(topo, Options{})
	jobs := []CollectiveJob{
		{Name: "J1", Nodes: []int{0, 1, 2, 3, 25, 26, 27, 28}, Pattern: collective.RHVD, BaseBytes: 1e6, Iterations: 30},
		{Name: "J2", Nodes: []int{4, 5, 6, 7, 8, 9, 29, 30, 31, 32, 33, 34}, Pattern: collective.RHVD, BaseBytes: 1e6, Iterations: 20, Start: 0.5},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Run(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunWithStats(t *testing.T) {
	topo := topology.PaperExample()
	n := New(topo, Options{NodeBandwidth: 100e6, UplinkBandwidth: 200e6})
	// 4+4 RD: the cross step saturates both leaf uplinks.
	timings, stats, err := n.RunWithStats([]CollectiveJob{{
		Name: "J", Nodes: []int{0, 1, 2, 3, 4, 5, 6, 7}, Pattern: collective.RD,
		BaseBytes: 1e6, Iterations: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duration <= 0 || math.Abs(stats.Duration-timings[0].End) > 1e-9 {
		t.Fatalf("duration %v vs end %v", stats.Duration, timings[0].End)
	}
	// The s0 uplink is busy exactly during the cross step: 0.02s of each
	// 0.04s iteration.
	busy, err := stats.SwitchUplinkBusy("s0")
	if err != nil {
		t.Fatal(err)
	}
	if busy < 0.45 || busy > 0.55 {
		t.Fatalf("s0 uplink busy fraction = %v, want ~0.5", busy)
	}
	// Byte conservation: each uplink carries 4 flows × 1 MB × 2 iterations.
	up := -1
	for idx, sw := range topo.Switches {
		if sw.Name == "s0" {
			up = n.switchBase + 2*idx
		}
	}
	if got := stats.Bytes[up]; math.Abs(got-8e6) > 1 {
		t.Fatalf("s0:up carried %v bytes, want 8e6", got)
	}
	if util := stats.Bytes[up] / (n.capacity[up] * stats.Duration); util <= 0 || util > 1 {
		t.Fatalf("s0:up utilisation %v", util)
	}
	if _, err := stats.SwitchUplinkBusy("nope"); err == nil {
		t.Error("unknown switch accepted")
	}
}

// With an incast penalty, contended links degrade superlinearly: the same
// co-located jobs slow each other far more than under pure max-min.
func TestIncastPenaltyAmplifiesContention(t *testing.T) {
	topo := topology.Departmental()
	jobs := func() []CollectiveJob {
		return []CollectiveJob{
			{Name: "J1", Nodes: []int{0, 1, 2, 3, 25, 26, 27, 28},
				Pattern: collective.RHVD, BaseBytes: 1e6, Iterations: 100},
			{Name: "J2", Nodes: []int{4, 5, 6, 7, 8, 9, 29, 30, 31, 32, 33, 34},
				Pattern: collective.RHVD, BaseBytes: 1e6, Iterations: 100},
		}
	}
	slowdown := func(penalty float64) float64 {
		n := New(topo, Options{NodeBandwidth: 125e6, UplinkBandwidth: 125e6, IncastPenalty: penalty})
		solo, err := n.Run(jobs()[:1])
		if err != nil {
			t.Fatal(err)
		}
		both, err := n.Run(jobs())
		if err != nil {
			t.Fatal(err)
		}
		return both[0].End / solo[0].End
	}
	pure := slowdown(0)
	incast := slowdown(0.3)
	if incast <= pure {
		t.Fatalf("incast slowdown %v not above pure max-min %v", incast, pure)
	}
	if incast < 1.15 {
		t.Fatalf("incast slowdown %v too small", incast)
	}
	// A single uncontended flow is unaffected by the penalty.
	n := New(topo, Options{NodeBandwidth: 100e6, UplinkBandwidth: 1e12, IncastPenalty: 0.5})
	timings, err := n.Run([]CollectiveJob{{
		Name: "solo", Nodes: []int{0, 25}, Pattern: collective.RD, BaseBytes: 1e6, Iterations: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// One flow per direction per link: no k>1 anywhere, so exactly 0.01 s.
	if math.Abs(timings[0].End-0.01) > 1e-6 {
		t.Fatalf("uncontended exchange = %v, want 0.01", timings[0].End)
	}
}
