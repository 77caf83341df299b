package sim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/workload"
)

// auditFaults selects the fault trace an audit case runs under.
type auditFaults uint8

const (
	noFaults    auditFaults = iota
	failFaults              // hard failures: killed jobs are requeued
	drainFaults             // graceful drains only: nothing is killed
	mixedFaults             // two traces merged, so a node can fail while drained
)

// auditSpec is one family of audited runs.
type auditSpec struct {
	policy Policy
	deps   bool
	faults auditFaults
	// grid, when positive, rounds submit times, runtimes and estimates to
	// its multiples, so events collide and planned ends tie as they do in
	// the synthetic presets; otherwise event times are continuous and
	// almost every start instant is decided rather than skipped.
	grid float64
}

// auditCase runs a seeded trace of the spec on a 64-node machine.
func auditCase(t testing.TB, seed int64, jobs int, spec auditSpec) (*Result, workload.Trace, Config) {
	t.Helper()
	topo := topology.IITK(4)
	rng := rand.New(rand.NewSource(seed))
	snap := func(x float64) float64 {
		if spec.grid > 0 {
			return math.Max(spec.grid, math.Round(x/spec.grid)*spec.grid)
		}
		return x
	}
	trace := workload.Trace{Name: "audit", MachineNodes: topo.NumNodes(), Jobs: make([]workload.Job, jobs)}
	now := 0.0
	for i := range trace.Jobs {
		now += rng.ExpFloat64() * 90
		runtime := snap(60 + rng.Float64()*3000)
		nodes := 1 + rng.Intn(16)
		if rng.Intn(8) == 0 {
			nodes = 17 + rng.Intn(48) // a wide head for the narrow jobs to backfill past
		}
		trace.Jobs[i] = workload.Job{ID: cluster.JobID(i + 1), Submit: snap(now), Runtime: runtime,
			Estimate: snap(runtime * (1 + 2*rng.Float64())), Nodes: nodes}
	}
	if spec.deps {
		var err error
		if trace, err = trace.WithDependencies(0.3, seed+1); err != nil {
			t.Fatal(err)
		}
	}
	trace = trace.MustTag(0.5, collective.SinglePattern(collective.RD, 0.5), seed+2)
	cfg := Config{Topology: topo, Algorithm: core.Default, Policy: spec.policy}
	switch spec.faults {
	case failFaults:
		cfg.Faults = faults.Model{MTBF: 2e5, MTTR: 2e3, Seed: seed + 3}.Generate(topo.NumNodes(), now/2)
	case drainFaults:
		cfg.Faults = faults.Model{MTBF: 2e5, MTTR: 2e3, DrainFraction: 1, Seed: seed + 3}.Generate(topo.NumNodes(), now)
	case mixedFaults:
		cfg.Faults = append(faults.Model{MTBF: 1e5, MTTR: 4e3, Seed: seed + 3}.Generate(topo.NumNodes(), now/2),
			faults.Model{MTBF: 1e5, MTTR: 4e3, DrainFraction: 1, Seed: seed + 4}.Generate(topo.NumNodes(), now/2)...)
		slices.SortStableFunc(cfg.Faults, func(x, y faults.Event) int { return cmp.Compare(x.Time, y.Time) })
	}
	for i := range cfg.Faults {
		cfg.Faults[i].Time = snap(cfg.Faults[i].Time)
	}
	res, err := RunContinuous(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	return res, trace, cfg
}

// shifted returns a copy of res with job k's Start and End moved earlier
// by shift.
func shifted(res *Result, k int, shift float64) *Result {
	out := &Result{Algorithm: res.Algorithm, Jobs: append([]metrics.JobResult(nil), res.Jobs...)}
	out.Jobs[k].Start -= shift
	out.Jobs[k].End -= shift
	return out
}

// auditsAgree runs the one-pass audit and the reference loop over one
// result and fails unless both accept it or both reject it with the same
// text. It reports whether the result was rejected.
func auditsAgree(t testing.TB, res *Result, trace workload.Trace, cfg Config) bool {
	t.Helper()
	a := newAuditor(res, trace, cfg)
	got, want := a.checkBackfillLegality(), checkBackfillLegalityRef(a)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("one-pass audit says %v, reference says %v", got, want)
	}
	return got != nil
}

// TestBackfillAuditMatchesRef holds the one-pass audit to the reference
// loop, error text included, on engine results under every policy, with
// dependencies, under each kind of fault trace and with colliding event
// times, and on results corrupted by moving one job earlier: onto another
// job's start, end or eligibility instant (which makes new multi-start
// passes), to end on a fault event, or by a random amount.
func TestBackfillAuditMatchesRef(t *testing.T) {
	cases := []struct {
		name string
		spec auditSpec
	}{
		{"fifo", auditSpec{policy: FIFO}},
		{"sjf", auditSpec{policy: SJF}},
		{"widest", auditSpec{policy: WidestFirst}},
		{"fifo-deps", auditSpec{policy: FIFO, deps: true}},
		{"fifo-requeue", auditSpec{policy: FIFO, faults: failFaults}},
		{"sjf-drain", auditSpec{policy: SJF, faults: drainFaults}},
		{"widest-mixed", auditSpec{policy: WidestFirst, faults: mixedFaults}},
		{"fifo-deps-grid", auditSpec{policy: FIFO, deps: true, grid: 60}},
		{"sjf-drain-grid", auditSpec{policy: SJF, faults: drainFaults, grid: 60}},
		{"fifo-mixed-grid", auditSpec{policy: FIFO, faults: mixedFaults, grid: 60}},
	}
	mutated, rejected := 0, 0
	for ci, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			res, trace, cfg := auditCase(t, 100*int64(ci)+seed, 150, c.spec)
			if auditsAgree(t, res, trace, cfg) {
				t.Fatalf("%s seed %d: the engine's own result was rejected", c.name, seed)
			}
			a := newAuditor(res, trace, cfg)
			rng := rand.New(rand.NewSource(seed))
			for m := 0; m < 150; m++ {
				k := rng.Intn(len(res.Jobs))
				from := res.Jobs[k].Start
				var to float64
				switch o := rng.Intn(len(res.Jobs)); m % 5 {
				case 0:
					to = res.Jobs[o].Start
				case 1:
					to = res.Jobs[o].End
				case 2:
					to = a.elig[o]
				case 3:
					if len(cfg.Faults) == 0 {
						continue
					}
					to = cfg.Faults[rng.Intn(len(cfg.Faults))].Time - res.Jobs[k].Exec
				default:
					to = from - rng.Float64()*from/4
				}
				if to >= from {
					continue
				}
				mutated++
				if auditsAgree(t, shifted(res, k, from-to), trace, cfg) {
					rejected++
				}
			}
		}
	}
	t.Logf("%d mutated results, %d rejected", mutated, rejected)
	if mutated < 2000 || rejected < 20 {
		t.Fatalf("%d mutated results with %d rejections, want at least 2000 and 20", mutated, rejected)
	}
}

// FuzzBackfillAudit is TestBackfillAuditMatchesRef's oracle over fuzzed
// seeds, run families and single-job shifts. mode picks the policy, the
// fault trace, dependencies and colliding times.
func FuzzBackfillAudit(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(7), 100.0)
	f.Add(int64(2), uint8(1), uint16(30), 2500.0)
	f.Add(int64(3), uint8(14), uint16(55), 17.5)
	f.Add(int64(4), uint8(51), uint16(12), 900.0)
	f.Add(int64(5), uint8(100), uint16(40), 60.0)
	f.Add(int64(6), uint8(12), uint16(20), 300.0) // FIFO with dependencies
	f.Fuzz(func(t *testing.T, seed int64, mode uint8, job uint16, shift float64) {
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return
		}
		spec := auditSpec{policy: Policy(mode % 3), faults: auditFaults(mode / 3 % 4),
			deps: mode/12%2 == 1}
		if mode/24%2 == 1 {
			spec.grid = 60
		}
		res, trace, cfg := auditCase(t, seed, 60, spec)
		auditsAgree(t, res, trace, cfg)
		k := int(job) % len(res.Jobs)
		auditsAgree(t, shifted(res, k, math.Mod(math.Abs(shift), res.Jobs[k].Start+1)), trace, cfg)
	})
}

// TestFaultCursorMatchesReplay holds the forward fault cursor to the
// reference replay from the trace start at every instant of random traces
// over a few nodes, where events collide in time and a node is failed,
// drained, failed while drained and repaired in any order.
func TestFaultCursorMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var trace faults.Trace
		now := 0.0
		for e := rng.Intn(40); e > 0; e-- {
			now += float64(rng.Intn(3))
			trace = append(trace, faults.Event{Time: now, Kind: faults.Kind(rng.Intn(3)), Node: rng.Intn(4)})
		}
		n := maxNodeID(trace)
		failed, drained := make([]bool, n), make([]bool, n)
		c := newFaultCursor(trace)
		for q := 0.0; q <= now+1; q += 0.5 {
			got, want := c.advance(q), faultViewAtRef(trace, q, failed, drained)
			if got != want {
				t.Fatalf("trial %d at %v: cursor %+v, replay %+v (trace %v)", trial, q, got, want, trace)
			}
		}
	}
}

// TestBackfillAuditScales pins the audit's growth with the run's length:
// a Theta run eight times longer may cost at most 32 times as much to
// audit. An audit that rescans every job at every start instant grows
// with the square of the length and fails this.
func TestBackfillAuditScales(t *testing.T) {
	if raceEnabled {
		t.Skip("timing ratio is meaningless under the race detector")
	}
	topo := topology.Theta()
	cost := func(jobs int) time.Duration {
		trace := workload.Theta.On(topo).Synthesize(jobs, 1)
		cfg := Config{Topology: topo, Algorithm: core.Default}
		res, err := RunContinuous(cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		a := newAuditor(res, trace, cfg)
		best := time.Duration(math.MaxInt64)
		for round := 0; round < 5; round++ {
			start := time.Now()
			if err := a.checkBackfillLegality(); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := cost(1000), cost(8000)
	ratio := float64(large) / float64(small)
	t.Logf("audit: %v at 1000 jobs, %v at 8000 jobs (ratio %.1f)", small, large, ratio)
	if ratio > 32 {
		t.Errorf("auditing 8x the jobs cost %.1fx as much, want at most 32x", ratio)
	}
}
