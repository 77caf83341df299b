package sim

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestBackfillAuditDeterministicError pins the determinism fix in
// checkBackfillLegality (flagged by cawslint): with two independently
// illegal backfill instants, the audit must always report the earliest
// one, not whichever instant the start map happens to yield first.
func TestBackfillAuditDeterministicError(t *testing.T) {
	// Job 1 occupies half the machine until t=100; job 2 wants the whole
	// machine and is the waiting head from t=10. Jobs 3 and 4 overrun the
	// shadow time (est 1000 ≫ 100) and no extra nodes exist, so starting
	// them early is illegal at both instants.
	trace := workload.Trace{
		Name:         "order",
		MachineNodes: 8,
		Jobs: []workload.Job{
			{ID: 1, Submit: 0, Runtime: 100, Nodes: 4},
			{ID: 2, Submit: 10, Runtime: 100, Nodes: 8},
			{ID: 3, Submit: 20, Runtime: 1000, Nodes: 2, Estimate: 1000},
			{ID: 4, Submit: 30, Runtime: 1000, Nodes: 2, Estimate: 1000},
		},
	}
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Default}
	res, err := RunContinuous(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Result{Algorithm: res.Algorithm,
		Jobs: append([]metrics.JobResult(nil), res.Jobs...)}
	bad.Jobs[2].Start = 20
	bad.Jobs[2].End = bad.Jobs[2].Start + bad.Jobs[2].Exec
	bad.Jobs[3].Start = 30
	bad.Jobs[3].End = bad.Jobs[3].Start + bad.Jobs[3].Exec

	a := newAuditor(bad, trace, cfg)
	first := a.checkBackfillLegality()
	if first == nil {
		t.Fatal("illegal backfills passed the audit")
	}
	if !strings.Contains(first.Error(), "job 3 ") ||
		!strings.Contains(first.Error(), " at 20 ") {
		t.Fatalf("audit should report the earliest illegal instant: %v", first)
	}
	for i := 0; i < 100; i++ {
		if err := a.checkBackfillLegality(); err == nil || err.Error() != first.Error() {
			t.Fatalf("iteration %d: error changed from %q to %v", i, first, err)
		}
	}
}

// Under FIFO the audit reads queue order as index order even when a trace
// has dependencies, so an instant where the head and a backfill became
// eligible together is decided, not skipped. Job 1 holds half the machine
// until 100; job 2 depends on it; job 3 (the whole machine) and job 4 (2
// nodes, estimate 1000) are both submitted at 10. The result below starts
// job 4 at 20 past the waiting job 3, which neither ends by the shadow time
// 100 nor fits its 0 extra nodes; job 3 starts when job 4 ends. Every other
// property of the result holds.
func TestBackfillAuditDecidesFIFOEligibilityTies(t *testing.T) {
	dep := workload.Job{ID: 2, Submit: 0, Runtime: 10, Nodes: 1, DependsOn: 1}
	trace := workload.Trace{
		Name:         "tie",
		MachineNodes: 8,
		Jobs: []workload.Job{
			{ID: 1, Submit: 0, Runtime: 100, Nodes: 4},
			dep,
			{ID: 3, Submit: 10, Runtime: 100, Nodes: 8},
			{ID: 4, Submit: 10, Runtime: 1000, Nodes: 2, Estimate: 1000},
		},
	}
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Default}
	res, err := RunContinuousValidated(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Result{Algorithm: res.Algorithm,
		Jobs: append([]metrics.JobResult(nil), res.Jobs...)}
	for k, start := range map[int]float64{2: 1020, 3: 20} {
		bad.Jobs[k].Start = start
		bad.Jobs[k].End = start + bad.Jobs[k].Exec
	}
	if err := ValidateResult(bad, trace); err != nil {
		t.Fatalf("the illegal backfill should be the result's only fault: %v", err)
	}
	err = ValidateResultConfig(bad, trace, cfg)
	if err == nil || !strings.Contains(err.Error(), "job 4 ") || !strings.Contains(err.Error(), " at 20 ") {
		t.Fatalf("audit: %v, want job 4's backfill at 20 rejected", err)
	}
	auditsAgree(t, bad, trace, cfg)
}
