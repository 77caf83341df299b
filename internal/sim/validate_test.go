package sim

import (
	"slices"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Every algorithm × policy × option combination must produce a run that
// passes the independent auditor — the package's main integration test.
func TestValidateResultAcrossConfigurations(t *testing.T) {
	base := workload.Theta.Synthesize(120, 44).
		MustTag(0.9, collective.SinglePattern(collective.RHVD, 0.7), 45)
	withDeps, err := base.WithDependencies(0.2, 46)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.Theta()
	type cfgCase struct {
		name  string
		cfg   Config
		trace workload.Trace
	}
	var cases []cfgCase
	for _, alg := range core.Algorithms {
		cases = append(cases, cfgCase{alg.String(), Config{Topology: topo, Algorithm: alg}, base})
	}
	cases = append(cases,
		cfgCase{"nobackfill", Config{Topology: topo, Algorithm: core.Adaptive, DisableBackfill: true}, base},
		cfgCase{"sjf", Config{Topology: topo, Algorithm: core.Balanced, Policy: SJF}, base},
		cfgCase{"widest", Config{Topology: topo, Algorithm: core.Greedy, Policy: WidestFirst}, base},
		cfgCase{"remap", Config{Topology: topo, Algorithm: core.Default, RankRemap: true}, base},
		cfgCase{"hop-bytes", Config{Topology: topo, Algorithm: core.Adaptive, CostMode: 2}, base},
		cfgCase{"deps", Config{Topology: topo, Algorithm: core.Adaptive}, withDeps},
		cfgCase{"deps-sjf", Config{Topology: topo, Algorithm: core.Balanced, Policy: SJF}, withDeps},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := RunContinuous(c.cfg, c.trace)
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateResult(res, c.trace); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The auditor itself catches corrupted results.
func TestValidateResultCatchesCorruption(t *testing.T) {
	trace := smallTrace()
	res, err := RunContinuous(Config{Topology: topology.PaperExample(), Algorithm: core.Default}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateResult(res, trace); err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(jobs []metrics.JobResult)) error {
		bad := &Result{Algorithm: res.Algorithm,
			Jobs: append([]metrics.JobResult(nil), res.Jobs...)}
		mutate(bad.Jobs)
		return ValidateResult(bad, trace)
	}
	if err := corrupt(func(js []metrics.JobResult) { js[0].Start = js[0].Submit - 5 }); err == nil {
		t.Error("early start accepted")
	}
	if err := corrupt(func(js []metrics.JobResult) { js[1].Nodes = 99 }); err == nil {
		t.Error("node mismatch accepted")
	}
	if err := corrupt(func(js []metrics.JobResult) { js[2].End = js[2].Start }); err == nil {
		t.Error("inconsistent end accepted")
	}
	if err := corrupt(func(js []metrics.JobResult) { js[0].ID = 999 }); err == nil {
		t.Error("ID mismatch accepted")
	}
	// Oversubscription: force two full-machine jobs to overlap.
	if err := corrupt(func(js []metrics.JobResult) {
		js[2].Start = js[0].Start
		js[2].End = js[2].Start + js[2].Exec
	}); err == nil {
		t.Error("oversubscription accepted")
	}
	short := &Result{Jobs: res.Jobs[:2]}
	if err := ValidateResult(short, trace); err == nil {
		t.Error("missing results accepted")
	}
}

// The runtime-model checks (Eq. 7 consistency, cost-ratio bookkeeping)
// catch deliberately corrupted per-job cost fields.
func TestValidateResultCatchesRuntimeModelCorruption(t *testing.T) {
	trace := smallTrace()
	res, err := RunContinuous(Config{Topology: topology.PaperExample(), Algorithm: core.Balanced}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateResult(res, trace); err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(jobs []metrics.JobResult)) error {
		bad := &Result{Algorithm: res.Algorithm,
			Jobs: append([]metrics.JobResult(nil), res.Jobs...)}
		mutate(bad.Jobs)
		return ValidateResult(bad, trace)
	}
	// Job 0 is comm-intensive with a single RD component (see smallTrace).
	if err := corrupt(func(js []metrics.JobResult) { js[0].CostRatio = 0 }); err == nil {
		t.Error("zero cost ratio accepted")
	}
	if err := corrupt(func(js []metrics.JobResult) { js[0].CostRatio *= 2 }); err == nil {
		t.Error("cost ratio inconsistent with Eq. 7 accepted")
	}
	if err := corrupt(func(js []metrics.JobResult) { js[0].CommCost = -1 }); err == nil {
		t.Error("negative comm cost accepted")
	}
	if err := corrupt(func(js []metrics.JobResult) {
		// Break CostRatio == CommCost/RefCost while keeping Eq. 7 intact.
		js[0].CommCost = js[0].CommCost*js[0].CostRatio + 1
		js[0].RefCost = js[0].CommCost * 2
	}); err == nil {
		t.Error("cost ratio != CommCost/RefCost accepted")
	}
	if err := corrupt(func(js []metrics.JobResult) {
		// Shift exec without touching the ratio: Eq. 7 must fire.
		js[0].Exec += 17
		js[0].End = js[0].Start + js[0].Exec
	}); err == nil {
		t.Error("exec inconsistent with Eq. 7 accepted")
	}
	// Job 1 is compute-intensive: the model must leave it untouched.
	if err := corrupt(func(js []metrics.JobResult) { js[1].CostRatio = 1.5 }); err == nil {
		t.Error("compute job with non-unit ratio accepted")
	}
}

// ValidateResultConfig passes for correct runs across configurations and
// rejects schedules that violate policy order or EASY backfill legality.
func TestValidateResultConfig(t *testing.T) {
	trace := smallTrace()
	topo := topology.PaperExample()
	for _, cfg := range []Config{
		{Topology: topo, Algorithm: core.Adaptive},
		{Topology: topo, Algorithm: core.Adaptive, DisableBackfill: true},
		{Topology: topo, Algorithm: core.Greedy, Policy: SJF},
		{Topology: topo, Algorithm: core.Default, Policy: WidestFirst, DisableBackfill: true},
	} {
		res, err := RunContinuous(cfg, trace)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if err := ValidateResultConfig(res, trace, cfg); err != nil {
			t.Errorf("correct run rejected (backfill off=%v policy=%v): %v",
				cfg.DisableBackfill, cfg.Policy, err)
		}
	}
}

func TestValidateResultConfigCatchesIllegalOrder(t *testing.T) {
	// Machine of 8; job 1 occupies half, job 2 wants the full machine and
	// must wait, job 3 is small. With backfill disabled job 3 must not jump
	// job 2; with backfill enabled it may only jump legally.
	trace := workload.Trace{
		Name:         "order",
		MachineNodes: 8,
		Jobs: []workload.Job{
			{ID: 1, Submit: 0, Runtime: 100, Nodes: 4},
			{ID: 2, Submit: 10, Runtime: 100, Nodes: 8},
			{ID: 3, Submit: 20, Runtime: 1000, Nodes: 4, Estimate: 1000},
		},
	}
	topo := topology.PaperExample()
	cfgOff := Config{Topology: topo, Algorithm: core.Default, DisableBackfill: true}
	res, err := RunContinuous(cfgOff, trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateResultConfig(res, trace, cfgOff); err != nil {
		t.Fatalf("legal no-backfill run rejected: %v", err)
	}
	// Corrupt: start job 3 at t=20 while job 2 (eligible at 10) still waits.
	bad := &Result{Algorithm: res.Algorithm,
		Jobs: append([]metrics.JobResult(nil), res.Jobs...)}
	bad.Jobs[2].Start = 20
	bad.Jobs[2].End = bad.Jobs[2].Start + bad.Jobs[2].Exec
	if err := ValidateResultConfig(bad, trace, cfgOff); err == nil {
		t.Error("no-backfill order violation accepted")
	}
	// Same corrupted schedule under backfill: job 3's estimate (1000 s)
	// overruns the shadow time (job 1 ends at 100) and its 4 nodes exceed
	// the 0 extra nodes, so the EASY audit must fire too.
	cfgOn := Config{Topology: topo, Algorithm: core.Default}
	if err := ValidateResultConfig(bad, trace, cfgOn); err == nil {
		t.Error("illegal backfill accepted")
	}
	// A legal backfill of the same shape must pass: shrink job 3's estimate
	// and runtime so it finishes before the shadow time.
	legal := workload.Trace{
		Name:         "legal",
		MachineNodes: 8,
		Jobs: []workload.Job{
			{ID: 1, Submit: 0, Runtime: 100, Nodes: 4},
			{ID: 2, Submit: 10, Runtime: 100, Nodes: 8},
			{ID: 3, Submit: 20, Runtime: 30, Nodes: 4, Estimate: 30},
		},
	}
	res2, err := RunContinuous(cfgOn, legal)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Jobs[2].Start != 20 {
		t.Fatalf("expected job 3 to backfill at 20, started %v", res2.Jobs[2].Start)
	}
	if err := ValidateResultConfig(res2, legal, cfgOn); err != nil {
		t.Errorf("legal backfill rejected: %v", err)
	}
}

// A drain of a node past the machine is accepted and skips the instants it
// is in effect, as any drain does. Job 3 backfills at 20 although its
// estimate (200 s) overruns job 2's reservation at 100; a phantom drain
// over 15–25 hides that start, one over 0–15 does not.
func TestValidateSkipsDrainPastMachine(t *testing.T) {
	trace := workload.Trace{
		Name:         "phantom",
		MachineNodes: 8,
		Jobs: []workload.Job{
			{ID: 1, Submit: 0, Runtime: 100, Nodes: 4},
			{ID: 2, Submit: 10, Runtime: 100, Nodes: 8},
			{ID: 3, Submit: 20, Runtime: 30, Nodes: 4, Estimate: 200},
		},
	}
	topo := topology.PaperExample()
	cfg := Config{Topology: topo, Algorithm: core.Default}
	res, err := RunContinuous(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Result{Algorithm: res.Algorithm, Jobs: slices.Clone(res.Jobs)}
	bad.Jobs[2].Start = 20
	bad.Jobs[2].End = bad.Jobs[2].Start + bad.Jobs[2].Exec
	phantom := func(from, to float64) faults.Trace {
		return faults.Trace{
			{Time: from, Kind: faults.Drain, Node: topo.NumNodes()},
			{Time: to, Kind: faults.Repair, Node: topo.NumNodes()},
		}
	}
	cfg.Faults = phantom(0, 15)
	if err := ValidateResultConfig(bad, trace, cfg); err == nil {
		t.Error("illegal backfill outside the drain accepted")
	}
	cfg.Faults = phantom(15, 25)
	if err := ValidateResultConfig(bad, trace, cfg); err != nil {
		t.Errorf("illegal backfill under a drain past the machine rejected: %v", err)
	}
}
