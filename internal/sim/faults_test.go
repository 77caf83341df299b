package sim

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topology"
	"repro/internal/workload"
)

// oneJobTrace is a single 4-node job on the 8-node paper machine.
func oneJobTrace() workload.Trace {
	return workload.Trace{
		Name:         "one",
		MachineNodes: 8,
		Jobs: []workload.Job{
			{ID: 1, Submit: 0, Runtime: 100, Nodes: 4,
				Class: cluster.ComputeIntensive, Mix: collective.Mix{ComputeFrac: 1}},
		},
	}
}

func TestFailKillsAndRequeues(t *testing.T) {
	// The job runs on 4 of 8 nodes from t=0; a failure at t=30 kills it.
	// Every node is a candidate (selector choice), so fail all of one
	// leaf's nodes' complement... simpler: fail node 0 through 7 one at a
	// time is overkill — instead fail every node the job could sit on by
	// failing a single node and checking both outcomes deterministically:
	// the run is deterministic, so just assert on the observed requeue.
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Default,
		Faults: faults.Trace{
			{Time: 30, Kind: faults.Fail, Node: 0},
			{Time: 40, Kind: faults.Repair, Node: 0},
		}}
	res, err := RunContinuousValidated(cfg, oneJobTrace())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Jobs[0]
	// The default selector packs the job onto nodes 0-3, so node 0's
	// failure kills it.
	if r.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", r.Requeues)
	}
	if r.RequeuedAt != 30 {
		t.Fatalf("requeued at %v, want 30", r.RequeuedAt)
	}
	if r.LostSeconds != 30 {
		t.Fatalf("lost %v seconds, want 30", r.LostSeconds)
	}
	// Restarted immediately at the kill time (4 healthy nodes remain on
	// the other leaf) and ran its full runtime.
	if r.Start != 30 || r.End != 130 {
		t.Fatalf("final attempt [%v, %v], want [30, 130]", r.Start, r.End)
	}
	if res.Summary.Requeues != 1 {
		t.Fatalf("summary requeues = %d, want 1", res.Summary.Requeues)
	}
	if want := 4 * 30.0 / 3600; res.Summary.LostNodeHours != want {
		t.Fatalf("summary lost node-hours = %v, want %v", res.Summary.LostNodeHours, want)
	}
}

func TestDrainLetsJobFinish(t *testing.T) {
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Default,
		Faults: faults.Trace{
			{Time: 30, Kind: faults.Drain, Node: 0},
			{Time: 500, Kind: faults.Repair, Node: 0},
		}}
	res, err := RunContinuousValidated(cfg, oneJobTrace())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Jobs[0]
	if r.Requeues != 0 {
		t.Fatalf("drain killed the job (%d requeues)", r.Requeues)
	}
	if r.Start != 0 || r.End != 100 {
		t.Fatalf("job ran [%v, %v], want [0, 100]", r.Start, r.End)
	}
}

func TestFailedCapacityDelaysQueue(t *testing.T) {
	// Job 1 needs all 8 nodes at t=10; node 0 fails at t=5 and is repaired
	// at t=50, so the job cannot start before the repair.
	trace := workload.Trace{
		Name:         "full",
		MachineNodes: 8,
		Jobs: []workload.Job{
			{ID: 1, Submit: 10, Runtime: 20, Nodes: 8,
				Class: cluster.ComputeIntensive, Mix: collective.Mix{ComputeFrac: 1}},
		},
	}
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Default,
		Faults: faults.Trace{
			{Time: 5, Kind: faults.Fail, Node: 0},
			{Time: 50, Kind: faults.Repair, Node: 0},
		}}
	res, err := RunContinuousValidated(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].Start; got != 50 {
		t.Fatalf("full-machine job started at %v, want 50 (after repair)", got)
	}
}

func TestBackfillContinuesWhileHeadBlockedByFailures(t *testing.T) {
	// Head job needs the whole machine while a node is failed, so its
	// reservation is unsatisfiable; a small job behind it must still run
	// on the free nodes instead of the simulator declaring a dead end.
	trace := workload.Trace{
		Name:         "blocked-head",
		MachineNodes: 8,
		Jobs: []workload.Job{
			{ID: 1, Submit: 0, Runtime: 30, Nodes: 8,
				Class: cluster.ComputeIntensive, Mix: collective.Mix{ComputeFrac: 1}},
			{ID: 2, Submit: 1, Runtime: 10, Nodes: 2,
				Class: cluster.ComputeIntensive, Mix: collective.Mix{ComputeFrac: 1}},
		},
	}
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Default,
		Faults: faults.Trace{
			{Time: 0, Kind: faults.Fail, Node: 7},
			{Time: 100, Kind: faults.Repair, Node: 7},
		}}
	res, err := RunContinuousValidated(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[1].Start; got != 1 {
		t.Fatalf("small job started at %v, want 1 (backfilled while head blocked)", got)
	}
	if got := res.Jobs[0].Start; got != 100 {
		t.Fatalf("head started at %v, want 100 (after repair)", got)
	}
}

func TestZeroFaultTraceIsBitIdentical(t *testing.T) {
	trace := workload.Theta.Synthesize(80, 7).
		MustTag(0.9, collective.SinglePattern(collective.RHVD, 0.7), 5)
	for _, alg := range core.Algorithms {
		base, err := RunContinuous(Config{Topology: topology.Theta(), Algorithm: alg}, trace)
		if err != nil {
			t.Fatal(err)
		}
		withNil, err := RunContinuous(Config{Topology: topology.Theta(), Algorithm: alg,
			Faults: nil}, trace)
		if err != nil {
			t.Fatal(err)
		}
		empty := faults.Model{}.Generate(topology.Theta().NumNodes(), 1e9)
		withEmpty, err := RunContinuous(Config{Topology: topology.Theta(), Algorithm: alg,
			Faults: empty}, trace)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Jobs, withNil.Jobs) || base.Summary != withNil.Summary {
			t.Fatalf("%v: nil fault trace changed results", alg)
		}
		if !reflect.DeepEqual(base.Jobs, withEmpty.Jobs) || base.Summary != withEmpty.Summary {
			t.Fatalf("%v: zero-failure model changed results", alg)
		}
	}
}

func TestRepeatedFailuresRequeueRepeatedly(t *testing.T) {
	// Kill the job twice. First attempt: the default selector packs the
	// 4-node job onto leaf 0 (nodes 0-3), so failing node 0 at t=10 kills
	// it; node 4 fails too, leaving healthy nodes {1,2,3,5,6,7} for the
	// immediate restart. Second kill at t=20: any 4-node subset of those
	// six must intersect {2,3,6}, so failing those three kills the second
	// attempt wherever it landed, and the five healthy nodes {0,1,4,5,7}
	// (0 and 4 repaired at t=15) host the final attempt at once.
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Default,
		Faults: faults.Trace{
			{Time: 10, Kind: faults.Fail, Node: 0},
			{Time: 10, Kind: faults.Fail, Node: 4},
			{Time: 15, Kind: faults.Repair, Node: 0},
			{Time: 15, Kind: faults.Repair, Node: 4},
			{Time: 20, Kind: faults.Fail, Node: 2},
			{Time: 20, Kind: faults.Fail, Node: 3},
			{Time: 20, Kind: faults.Fail, Node: 6},
			{Time: 25, Kind: faults.Repair, Node: 2},
			{Time: 25, Kind: faults.Repair, Node: 3},
			{Time: 25, Kind: faults.Repair, Node: 6},
		}}
	res, err := RunContinuousValidated(cfg, oneJobTrace())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Jobs[0]
	if r.Requeues != 2 {
		t.Fatalf("requeues = %d, want 2", r.Requeues)
	}
	if r.RequeuedAt != 20 {
		t.Fatalf("last requeue at %v, want 20", r.RequeuedAt)
	}
	// Lost work: [0,10) on the first attempt plus [10,20) on the second
	// (restarted at its kill time on remaining healthy nodes).
	if r.LostSeconds != 20 {
		t.Fatalf("lost %v seconds, want 20", r.LostSeconds)
	}
	if err := cluster.New(topology.PaperExample()).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

var errWorkersDiverged = errors.New("concurrent identical runs diverged")

// TestFaultChurnConcurrentAdaptiveRuns exercises the adaptive selector's
// candidate pricing (the pooled scratches and the schedule memo, shared by
// every run in the process) while fault events kill, requeue and
// repair around it, across several simulations running in parallel — the
// shape the CI race job checks with -race.
func TestFaultChurnConcurrentAdaptiveRuns(t *testing.T) {
	topo := topology.IITK(4) // 64 nodes
	preset := workload.Preset{
		Name:        "iitk-race",
		NewTopology: func() *topology.Topology { return topo },
		MaxJobNodes: 16,
		Pow2Frac:    0.8,
		Utilization: 0.9,
	}
	trace := preset.Synthesize(40, 3).
		MustTag(0.7, collective.SinglePattern(collective.RD, 0.6), 2)
	ftrace := faults.Model{MTBF: 1e5, MTTR: 3e3, DrainFraction: 0.25, Seed: 5}.
		Generate(topo.NumNodes(), 3e4)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first *Result
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunContinuousValidated(Config{
				Topology: topo, Algorithm: core.Adaptive, Faults: ftrace,
			}, trace)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if first == nil {
				first = res
			} else if !reflect.DeepEqual(first.Jobs, res.Jobs) {
				errs <- errWorkersDiverged
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFaultTraceValidateRejected(t *testing.T) {
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Default,
		Faults: faults.Trace{{Time: 0, Kind: faults.Fail, Node: 99}}}
	if _, err := RunContinuous(cfg, oneJobTrace()); err == nil {
		t.Fatal("out-of-range fault node accepted")
	}
	cfg.Faults = faults.Trace{{Time: -1, Kind: faults.Fail, Node: 0}}
	if _, err := RunContinuous(cfg, oneJobTrace()); err == nil {
		t.Fatal("negative fault time accepted")
	}
}

// TestFaultChurnAllAlgorithmsValidated drives a generated workload through
// every algorithm with a moderately aggressive generated fault trace and
// requires the full self-audit (including the fault-aware backfill
// legality checks) to pass, plus cluster invariants post-run.
func TestFaultChurnAllAlgorithmsValidated(t *testing.T) {
	topo := topology.IITK(8) // 128 nodes
	preset := workload.Preset{
		Name:        "iitk-churn",
		NewTopology: func() *topology.Topology { return topo },
		MaxJobNodes: 32,
		Pow2Frac:    0.9,
		Utilization: 0.8,
	}
	trace := preset.Synthesize(60, 11).
		MustTag(0.5, collective.SinglePattern(collective.RD, 0.5), 4)
	ftrace := faults.Model{MTBF: 2e5, MTTR: 5e3, DrainFraction: 0.3, Seed: 17}.
		Generate(topo.NumNodes(), 5e4)
	if len(ftrace) == 0 {
		t.Fatal("fault model generated no events; tighten MTBF")
	}
	for _, alg := range core.Algorithms {
		res, err := RunContinuousValidated(Config{
			Topology: topo, Algorithm: alg, Faults: ftrace,
		}, trace)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Summary.Jobs != 60 {
			t.Fatalf("%v: %d jobs", alg, res.Summary.Jobs)
		}
	}
}
