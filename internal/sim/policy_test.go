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

// parentPolicyRuns is the SHA-256 TestPolicyRunsMatchParent computes. It was
// re-recorded when the simulator began to queue a job killed by a node
// failure straight back where the policy places it, in time for the pass
// after the failure, instead of as a fresh arrival at the tail.
const parentPolicyRuns = "bf59a4237189a714020a710ccdc190505717fbfd394d7faca4f4c02644e3094f"

// parentPolicyRunsNoFaults is the SHA-256 TestPolicyRunsWithoutFaultsMatchParent
// computes, taken by running it on the commit before the queue took one way
// in (sched.Queue.Add), where FIFO pushed each arrival at the tail and the
// other policies inserted it ahead of the first job it was Policy.less than.
const parentPolicyRunsNoFaults = "993dfeaecc86fda41578e4a28fc4be1a21ec1c1cb2f33aceaa007d8ab34eeb41"

// policyTrace is a 240-job trace on a 128-node machine, offered at
// utilization times its capacity.
func policyTrace(utilization float64) (*topology.Topology, workload.Trace) {
	topo := topology.IITK(8) // 128 nodes
	preset := workload.Preset{
		Name:        "iitk-policy",
		NewTopology: func() *topology.Topology { return topo },
		MaxJobNodes: 32,
		Pow2Frac:    0.9,
		Utilization: utilization,
	}
	return topo, preset.Synthesize(240, 5).
		MustTag(0.5, collective.SinglePattern(collective.RD, 0.5), 6)
}

// policyRunsDigest replays trace under every policy with and without
// backfilling, audited, and hashes every job's result bit for bit. Each run
// must keep at least half the jobs waiting, so the queue is long enough to
// reorder, and suffer at least minRequeues requeues.
func policyRunsDigest(t *testing.T, topo *topology.Topology, trace workload.Trace, ftrace faults.Trace, minRequeues int) string {
	t.Helper()
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
			if res.Summary.Requeues < minRequeues {
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
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPolicyRunsMatchParent replays a congested trace with node failures
// that kill and requeue running jobs.
func TestPolicyRunsMatchParent(t *testing.T) {
	topo, trace := policyTrace(1.4)
	ftrace := faults.Model{MTBF: 4e4, MTTR: 3e3, DrainFraction: 0.2, Seed: 3}.
		Generate(topo.NumNodes(), 5e4)
	if got := policyRunsDigest(t, topo, trace, ftrace, 5); got != parentPolicyRuns {
		t.Errorf("results hash to %s, the recorded runs to %s", got, parentPolicyRuns)
	}
}

// TestPolicyRunsWithoutFaultsMatchParent replays a trace congested enough
// to keep half its jobs waiting without failures, with no faults and no
// dependencies, where nothing re-enters the queue: keeping the queue sorted
// by Add serves every job where the two ways in did.
func TestPolicyRunsWithoutFaultsMatchParent(t *testing.T) {
	topo, trace := policyTrace(2)
	if got := policyRunsDigest(t, topo, trace, nil, 0); got != parentPolicyRunsNoFaults {
		t.Errorf("results hash to %s, the parent commit's to %s", got, parentPolicyRunsNoFaults)
	}
}
