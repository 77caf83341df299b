package sim

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topology"
	"repro/internal/workload"
)

// parentPolicyRuns is the SHA-256 TestPolicyRunsMatchParent computes, taken
// by running this very test on the commit before the queue moved into
// internal/sched (36fe302), where every pass appended the arrival, scanned
// the queue for sortedness and stable-sorted it.
const parentPolicyRuns = "36a75afda6359947a2e7fda1a5721a3181a4e6f31a71c2578096c1471c6c486c"

// TestPolicyRunsMatchParent replays one congested trace, with node failures
// that kill and requeue running jobs, under every policy with and without
// backfilling, and hashes every job's result bit for bit. Queueing an arrival
// ahead of the first job it is Policy.less than serves the jobs in the order
// the per-pass stable sort did.
func TestPolicyRunsMatchParent(t *testing.T) {
	topo := topology.IITK(8) // 128 nodes
	preset := workload.Preset{
		Name:        "iitk-policy",
		NewTopology: func() *topology.Topology { return topo },
		MaxJobNodes: 32,
		Pow2Frac:    0.9,
		Utilization: 1.4,
	}
	trace := preset.Synthesize(240, 5).
		MustTag(0.5, collective.SinglePattern(collective.RD, 0.5), 6)
	ftrace := faults.Model{MTBF: 4e4, MTTR: 3e3, DrainFraction: 0.2, Seed: 3}.
		Generate(topo.NumNodes(), 5e4)
	h := sha256.New()
	for _, p := range []Policy{FIFO, SJF, WidestFirst} {
		for _, noBackfill := range []bool{false, true} {
			res, err := RunContinuousValidated(Config{
				Topology: topo, Algorithm: core.Adaptive, Policy: p,
				DisableBackfill: noBackfill, Faults: ftrace,
			}, trace)
			if err != nil {
				t.Fatalf("%v (backfill off: %v): %v", p, noBackfill, err)
			}
			if res.Summary.Requeues < 5 {
				t.Fatalf("%v: only %d requeues; the trace does not exercise re-arrivals", p, res.Summary.Requeues)
			}
			waited := 0
			for _, r := range res.Jobs {
				if r.Start > r.Submit {
					waited++
				}
				fmt.Fprintln(h, r.ID, math.Float64bits(r.Start), math.Float64bits(r.End),
					math.Float64bits(r.CommCost), r.Requeues, math.Float64bits(r.LostSeconds))
			}
			if waited < len(res.Jobs)/2 {
				t.Fatalf("%v: only %d of %d jobs waited; the queue stays too short to reorder", p, waited, len(res.Jobs))
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != parentPolicyRuns {
		t.Errorf("results hash to %s, the parent commit's to %s", got, parentPolicyRuns)
	}
}
