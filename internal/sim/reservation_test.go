package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/workload"
)

// End-to-end EASY accounting within a single schedule pass: the extra node
// pool is computed once per pass, so only same-pass backfills can observe
// its drain. Job 1 fills the machine until t=10, queueing everything
// behind it; the completion at t=10 triggers one pass over the whole
// queue, where shadow-outliving backfills must consume the head's extra
// nodes (3 → 1 → 0) and a job that no longer fits the drained pool must
// wait even though free nodes remain.
func TestBackfillExtraAccounting(t *testing.T) {
	// Machine 8 (2 leaves × 4). Pass at t=10: job 2 head-starts (free 4),
	// job 3 becomes the waiting head (5 > 4; shadow 110, extra 3). Backfill
	// scan in FIFO order: job 4 (2 nodes, outlives the shadow) drains extra
	// to 1; job 5 (2 nodes) no longer fits and must wait despite 2 free
	// nodes; job 6 (1 node) fits the remaining extra exactly.
	trace := workload.Trace{
		Name:         "extra",
		MachineNodes: 8,
		Jobs: []workload.Job{
			{ID: 1, Submit: 0, Runtime: 10, Nodes: 8},
			{ID: 2, Submit: 0.5, Runtime: 100, Nodes: 4},
			{ID: 3, Submit: 1, Runtime: 50, Nodes: 5},
			{ID: 4, Submit: 2, Runtime: 300, Nodes: 2},
			{ID: 5, Submit: 3, Runtime: 300, Nodes: 2},
			{ID: 6, Submit: 4, Runtime: 300, Nodes: 1},
		},
	}
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Default}
	res, err := RunContinuous(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	starts := make(map[int64]float64, len(res.Jobs))
	for _, r := range res.Jobs {
		starts[r.ID] = r.Start
	}
	if starts[2] != 10 {
		t.Errorf("job 2 started %v, want a head start at 10", starts[2])
	}
	if starts[3] != 110 {
		t.Errorf("head job 3 started %v, want exactly its shadow time 110", starts[3])
	}
	if starts[4] != 10 || starts[6] != 10 {
		t.Errorf("extra-pool backfills started %v, %v, want both at 10", starts[4], starts[6])
	}
	// Job 5 must not start before the head even though 2 nodes stay free
	// through t=110: the extra pool is drained to 1 by job 4.
	if starts[5] < starts[3] {
		t.Errorf("job 5 started %v, jumped the drained extra pool (head started %v)", starts[5], starts[3])
	}
	if err := ValidateResultConfig(res, trace, cfg); err != nil {
		t.Errorf("audit rejected the run: %v", err)
	}

	// Growing job 6 to 2 nodes pushes it past the remaining extra node as
	// well: only job 4 may backfill.
	trace.Jobs[5].Nodes = 2
	res, err = RunContinuous(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Jobs {
		starts[r.ID] = r.Start
	}
	if starts[4] != 10 {
		t.Errorf("job 4 started %v, want 10", starts[4])
	}
	if starts[6] < starts[3] || starts[5] < starts[3] {
		t.Errorf("jobs 5, 6 started %v, %v despite only 1 extra node after job 4 (head started %v)",
			starts[5], starts[6], starts[3])
	}
	if starts[3] != 110 {
		t.Errorf("head job 3 started %v, want 110", starts[3])
	}
	if err := ValidateResultConfig(res, trace, cfg); err != nil {
		t.Errorf("audit rejected the run: %v", err)
	}
}
