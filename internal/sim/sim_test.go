package sim

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/topology"
	"repro/internal/workload"
)

func smallTrace() workload.Trace {
	// 2-leaf, 8-node machine; jobs sized to force queueing.
	return workload.Trace{
		Name:         "tiny",
		MachineNodes: 8,
		Jobs: []workload.Job{
			{ID: 1, Submit: 0, Runtime: 100, Nodes: 4, Class: cluster.CommIntensive,
				Mix: collective.SinglePattern(collective.RD, 0.5)},
			{ID: 2, Submit: 10, Runtime: 100, Nodes: 4, Class: cluster.ComputeIntensive,
				Mix: collective.Mix{ComputeFrac: 1}},
			{ID: 3, Submit: 20, Runtime: 50, Nodes: 8, Class: cluster.CommIntensive,
				Mix: collective.SinglePattern(collective.RHVD, 0.7)},
			{ID: 4, Submit: 30, Runtime: 10, Nodes: 1, Class: cluster.ComputeIntensive,
				Mix: collective.Mix{ComputeFrac: 1}},
		},
	}
}

func TestRunContinuousBasics(t *testing.T) {
	for _, alg := range core.Algorithms {
		cfg := Config{Topology: topology.PaperExample(), Algorithm: alg}
		res, err := RunContinuous(cfg, smallTrace())
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Jobs) != 4 {
			t.Fatalf("%v: %d results", alg, len(res.Jobs))
		}
		for i, r := range res.Jobs {
			if r.Start < r.Submit {
				t.Errorf("%v job %d starts before submit", alg, i)
			}
			if r.End <= r.Start {
				t.Errorf("%v job %d non-positive runtime", alg, i)
			}
			if r.Exec <= 0 {
				t.Errorf("%v job %d exec %v", alg, i, r.Exec)
			}
		}
		// Jobs 1 and 2 fill the machine at t=10; job 3 needs all 8 nodes so
		// it waits; job 4 (1 node, 10 s) backfills.
		if res.Jobs[3].Start >= res.Jobs[2].Start {
			t.Errorf("%v: job 4 did not backfill ahead of job 3 (%v >= %v)",
				alg, res.Jobs[3].Start, res.Jobs[2].Start)
		}
	}
}

// Default algorithm must have cost ratio exactly 1 for every job: its own
// allocation is the reference.
func TestDefaultRatioIsOne(t *testing.T) {
	trace := workload.Theta.Synthesize(100, 3).MustTag(0.9, collective.SinglePattern(collective.RHVD, 0.7), 5)
	res, err := RunContinuous(Config{Topology: topology.Theta(), Algorithm: core.Default}, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Jobs {
		if r.CostRatio != 1 {
			t.Fatalf("job %d ratio %v, want 1", r.ID, r.CostRatio)
		}
		if r.Exec != r.BaseRun {
			t.Fatalf("job %d exec %v != base %v under default", r.ID, r.Exec, r.BaseRun)
		}
	}
}

// Compute-intensive jobs never change runtime, under any algorithm.
func TestComputeJobsUnchanged(t *testing.T) {
	trace := workload.Theta.Synthesize(80, 4).MustTag(0.5, collective.SinglePattern(collective.RD, 0.6), 6)
	for _, alg := range core.Algorithms {
		res, err := RunContinuous(Config{Topology: topology.Theta(), Algorithm: alg}, trace)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Jobs {
			if !r.Comm && r.Exec != r.BaseRun {
				t.Fatalf("%v: compute job %d exec %v != base %v", alg, r.ID, r.Exec, r.BaseRun)
			}
		}
	}
}

// The simulator conserves jobs and is deterministic.
func TestDeterminism(t *testing.T) {
	trace := workload.Theta.Synthesize(150, 8).MustTag(0.9, collective.SinglePattern(collective.RD, 0.7), 9)
	cfg := Config{Topology: topology.Theta(), Algorithm: core.Adaptive}
	a, err := RunContinuous(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContinuous(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("run not deterministic at job %d:\n%+v\n%+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
}

// Without backfilling, no job may start before an earlier-submitted job
// that was still waiting (strict FIFO).
func TestFIFOWithoutBackfill(t *testing.T) {
	trace := workload.Theta.Synthesize(120, 10).MustTag(0.9, collective.SinglePattern(collective.RD, 0.7), 11)
	cfg := Config{Topology: topology.Theta(), Algorithm: core.Greedy, DisableBackfill: true}
	res, err := RunContinuous(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	// In strict FIFO, start times follow submit order.
	for i := 1; i < len(res.Jobs); i++ {
		if res.Jobs[i].Start < res.Jobs[i-1].Start-1e-9 {
			t.Fatalf("FIFO violated: job %d starts %v before job %d at %v",
				res.Jobs[i].ID, res.Jobs[i].Start, res.Jobs[i-1].ID, res.Jobs[i-1].Start)
		}
	}
	// Backfilling should not increase total wait time.
	resBF, err := RunContinuous(Config{Topology: topology.Theta(), Algorithm: core.Greedy}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if resBF.Summary.TotalWaitHours > res.Summary.TotalWaitHours+1e-9 {
		t.Fatalf("backfilling increased wait: %v > %v",
			resBF.Summary.TotalWaitHours, res.Summary.TotalWaitHours)
	}
}

// The headline reproduction check, small scale: on a communication-heavy
// trace, balanced and adaptive must not lose to the default on total
// execution time.
func TestJobAwareBeatsDefaultOnExecTime(t *testing.T) {
	trace := workload.Theta.Synthesize(300, 21).MustTag(0.9, collective.SinglePattern(collective.RHVD, 0.7), 22)
	topo := topology.Theta()
	base, err := RunContinuous(Config{Topology: topo, Algorithm: core.Default}, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []core.Algorithm{core.Balanced, core.Adaptive} {
		res, err := RunContinuous(Config{Topology: topo, Algorithm: alg}, trace)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.TotalExecHours > base.Summary.TotalExecHours*1.02 {
			t.Errorf("%v total exec %v hours exceeds default %v",
				alg, res.Summary.TotalExecHours, base.Summary.TotalExecHours)
		}
	}
}

func TestRunContinuousErrors(t *testing.T) {
	trace := smallTrace()
	if _, err := RunContinuous(Config{Topology: nil}, trace); err == nil {
		t.Error("nil topology accepted")
	}
	big := trace
	big.MachineNodes = 10_000
	if _, err := RunContinuous(Config{Topology: topology.PaperExample()}, big); err == nil {
		t.Error("oversized trace accepted")
	}
	bad := trace
	bad.Jobs = append([]workload.Job(nil), trace.Jobs...)
	bad.Jobs[0].Nodes = 0
	if _, err := RunContinuous(Config{Topology: topology.PaperExample()}, bad); err == nil {
		t.Error("invalid trace accepted")
	}
	if _, err := RunContinuous(Config{Topology: topology.PaperExample(), Algorithm: core.Algorithm(99)}, trace); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestPrepareOccupiedState(t *testing.T) {
	topo := topology.Theta()
	cfg := IndividualConfig{Topology: topo, OccupiedFraction: 0.4, CommFraction: 0.5, Seed: 1}
	st, err := PrepareOccupiedState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	occ := topo.NumNodes() - st.FreeTotal()
	want := int(0.4 * float64(topo.NumNodes()))
	if occ != want {
		t.Fatalf("occupied %d nodes, want %d", occ, want)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Some comm-intensive occupancy must exist.
	commNodes := 0
	for l := 0; l < topo.NumLeaves(); l++ {
		commNodes += st.LeafComm(l)
	}
	if commNodes == 0 {
		t.Fatal("no communication-intensive filler")
	}
	// Deterministic.
	st2, err := PrepareOccupiedState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st2.FreeTotal() != st.FreeTotal() {
		t.Fatal("occupancy not deterministic")
	}
	if _, err := PrepareOccupiedState(IndividualConfig{Topology: topo, OccupiedFraction: 1.5}); err == nil {
		t.Error("occupancy > 1 accepted")
	}
	if _, err := PrepareOccupiedState(IndividualConfig{}); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestRunIndividual(t *testing.T) {
	trace := workload.Theta.Synthesize(100, 13).MustTag(0.9, collective.SinglePattern(collective.RD, 0.7), 14)
	cfg := IndividualConfig{Topology: topology.Theta(), Seed: 2}
	idx := trace.Sample(40, 3)
	results, err := RunIndividual(cfg, trace, idx, core.Algorithms)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no individual results")
	}
	var betterOrEqual, total int
	for _, r := range results {
		for _, alg := range core.Algorithms {
			if _, ok := r.Exec[alg]; !ok {
				t.Fatalf("missing exec for %v", alg)
			}
		}
		j := trace.Jobs[r.JobIndex]
		if j.Class == cluster.CommIntensive && j.Nodes > 1 {
			total++
			if r.Exec[core.Adaptive] <= r.Exec[core.Default]+1e-9 {
				betterOrEqual++
			}
			// §6.3: "the proposed algorithms always provide a similar or
			// better allocation than the default" — adaptive specifically
			// picks the cheaper of greedy/balanced.
			if r.Cost[core.Adaptive] > math.Min(r.Cost[core.Greedy], r.Cost[core.Balanced])+1e-9 {
				t.Fatalf("adaptive cost %v exceeds min(greedy %v, balanced %v)",
					r.Cost[core.Adaptive], r.Cost[core.Greedy], r.Cost[core.Balanced])
			}
		}
		// Default's exec must equal the base runtime (ratio 1).
		if got := r.Exec[core.Default]; math.Abs(got-j.Runtime) > 1e-9 {
			t.Fatalf("default exec %v != base %v", got, j.Runtime)
		}
	}
	if total == 0 {
		t.Fatal("no comm jobs sampled")
	}
	if betterOrEqual < total*7/10 {
		t.Errorf("adaptive better-or-equal on only %d/%d comm jobs", betterOrEqual, total)
	}
	if _, err := RunIndividual(cfg, trace, []int{-1}, core.Algorithms); err == nil {
		t.Error("bad job index accepted")
	}
}

// Ablation smoke test: distance-only and hop-bytes cost modes run and
// produce sane results.
func TestCostModes(t *testing.T) {
	trace := workload.Theta.Synthesize(60, 15).MustTag(0.9, collective.SinglePattern(collective.RHVD, 0.7), 16)
	for _, mode := range []costmodel.Mode{costmodel.ModeEffectiveHops, costmodel.ModeDistanceOnly, costmodel.ModeHopBytes} {
		res, err := RunContinuous(Config{Topology: topology.Theta(), Algorithm: core.Balanced, CostMode: mode}, trace)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(res.Jobs) != 60 {
			t.Fatalf("%v: %d jobs", mode, len(res.Jobs))
		}
	}
}

func BenchmarkRunContinuousTheta200(b *testing.B) {
	trace := workload.Theta.Synthesize(200, 1).MustTag(0.9, collective.SinglePattern(collective.RD, 0.7), 2)
	topo := topology.Theta()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunContinuous(Config{Topology: topo, Algorithm: core.Adaptive}, trace); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPolicyParseAndString(t *testing.T) {
	for _, p := range []Policy{FIFO, SJF, WidestFirst} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if got, err := ParsePolicy(""); err != nil || got != FIFO {
		t.Errorf("empty policy = %v, %v", got, err)
	}
	if _, err := ParsePolicy("frob"); err == nil {
		t.Error("unknown policy accepted")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should stringify")
	}
}

// SJF must not increase the average wait time versus FIFO on a congested
// trace (the textbook result), and WidestFirst must start the biggest
// waiting job no later than FIFO does.
func TestPoliciesShiftWaitTimes(t *testing.T) {
	trace := workload.Theta.Synthesize(150, 33).MustTag(0.9, collective.SinglePattern(collective.RD, 0.7), 34)
	topo := topology.Theta()
	run := func(p Policy) *Result {
		res, err := RunContinuous(Config{Topology: topo, Algorithm: core.Default, Policy: p}, trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fifo := run(FIFO)
	sjf := run(SJF)
	if sjf.Summary.AvgWaitHours > fifo.Summary.AvgWaitHours+1e-9 {
		t.Errorf("SJF avg wait %v exceeds FIFO %v",
			sjf.Summary.AvgWaitHours, fifo.Summary.AvgWaitHours)
	}
	widest := run(WidestFirst)
	// All jobs still complete exactly once under every policy.
	for _, res := range []*Result{fifo, sjf, widest} {
		if len(res.Jobs) != 150 {
			t.Fatalf("%v: %d results", res.Algorithm, len(res.Jobs))
		}
		for i, r := range res.Jobs {
			if r.End <= r.Start || r.Start < r.Submit {
				t.Fatalf("job %d has inconsistent times: %+v", i, r)
			}
		}
	}
}

func TestUtilizationReported(t *testing.T) {
	trace := workload.Theta.Synthesize(100, 51).MustTag(0.9, collective.SinglePattern(collective.RD, 0.7), 52)
	res, err := RunContinuous(Config{Topology: topology.Theta(), Algorithm: core.Default}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.MachineNodes != 4392 {
		t.Fatalf("MachineNodes = %d", res.MachineNodes)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("Utilization = %v", res.Utilization)
	}
}

// §6.1's side-effect claim: compute-intensive jobs, whose runtimes the
// algorithms never touch, still see lower average wait times under the
// job-aware algorithms because communication-intensive jobs release nodes
// earlier.
func TestComputeJobsBenefitFromReducedWaits(t *testing.T) {
	trace := workload.Theta.Synthesize(700, 61).
		MustTag(0.9, collective.SinglePattern(collective.RHVD, 0.7), 62)
	topo := topology.Theta()
	base, err := RunContinuous(Config{Topology: topo, Algorithm: core.Default}, trace)
	if err != nil {
		t.Fatal(err)
	}
	adap, err := RunContinuous(Config{Topology: topo, Algorithm: core.Adaptive}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if base.Summary.AvgComputeWaitHours <= 0 {
		t.Skip("trace not congested enough to queue compute jobs")
	}
	if adap.Summary.AvgComputeWaitHours > base.Summary.AvgComputeWaitHours*1.05 {
		t.Fatalf("compute wait grew under adaptive: %v vs %v",
			adap.Summary.AvgComputeWaitHours, base.Summary.AvgComputeWaitHours)
	}
}
