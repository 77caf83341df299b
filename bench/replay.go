package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// replayInput is what set-up hands to a replay measurement.
type replayInput struct {
	topo   *topology.Topology
	traces []workload.Trace
}

// coldJobs is the length of the small cold replay that ends set-up.
const coldJobs = 64

func setupReplay(r *run) (any, error) {
	topo := replayMachines[r.spec.Name].preset.NewTopology()
	traces, err := replayTraces(r.spec, topo, r.seed)
	if err != nil {
		return nil, err
	}
	cluster.New(topo) // builds the shared layout
	head := traces[0]
	head.Jobs = head.Jobs[:min(coldJobs, len(head.Jobs))]
	if _, err := sim.RunContinuous(sim.Config{Topology: topo, Algorithm: core.Adaptive}, head); err != nil {
		return nil, err
	}
	return &replayInput{topo, traces}, nil
}

// digestResult folds every field of every JobResult into 64 bits.
func digestResult(res *sim.Result) uint64 {
	h := uint64(res.Algorithm) + 1
	f := func(v float64) { h = mix64(h ^ math.Float64bits(v)) }
	for i := range res.Jobs {
		j := &res.Jobs[i]
		h = mix64(h ^ uint64(j.ID))
		h = mix64(h ^ uint64(j.Nodes))
		if j.Comm {
			h = mix64(h ^ 1)
		}
		f(j.Submit)
		f(j.Start)
		f(j.End)
		f(j.BaseRun)
		f(j.Exec)
		f(j.CommCost)
		f(j.RefCost)
		f(j.CostRatio)
		h = mix64(h ^ uint64(j.Requeues))
		f(j.RequeuedAt)
		f(j.LostSeconds)
	}
	return h
}

func hex64(v uint64) string { return strconv.FormatUint(v, 16) }

// bits renders a float64 exactly, with its readable value alongside.
func bits(v float64) string {
	return fmt.Sprintf("%s (%.6g)", hex64(math.Float64bits(v)), v)
}

// replayOnce runs the four algorithms over one trace, each as a timed
// region of its own so that a change of host speed inside the repetition
// is followed, and returns the results with the repetition's time in
// reference seconds.
func (r *run) replayOnce(topo *topology.Topology, tr workload.Trace) ([]*sim.Result, float64, error) {
	results := make([]*sim.Result, len(core.Algorithms))
	refWall := 0.0
	runtime.GC()
	for a, alg := range core.Algorithms {
		var err error
		d, _ := r.timed(func() {
			results[a], err = sim.RunContinuous(sim.Config{Topology: topo, Algorithm: alg}, tr)
		})
		if err != nil {
			return nil, 0, fmt.Errorf("%v: %w", alg, err)
		}
		refWall += d
	}
	return results, refWall, nil
}

// checkReplay fingerprints one repetition's results; the first time a
// trace is seen its results also pass the simulator's own audit.
func (r *run) checkReplay(in *replayInput, k int, results []*sim.Result, first bool) {
	for a, res := range results {
		alg := core.Algorithms[a]
		r.check(fmt.Sprintf("t%d.%v", k, alg), hex64(digestResult(res)))
		if !first {
			continue
		}
		r.op(1)
		cfg := sim.Config{Topology: in.topo, Algorithm: alg}
		if err := sim.ValidateResultConfig(res, in.traces[k], cfg); err != nil {
			r.fail(1, "trace %d %v: %v", k, alg, err)
		}
		if k == 0 {
			r.check(fmt.Sprintf("t0.%v.exec_hours", alg), bits(res.Summary.TotalExecHours))
			r.check(fmt.Sprintf("t0.%v.wait_hours", alg), bits(res.Summary.TotalWaitHours))
		}
	}
}

func measureReplay(r *run, v any) error {
	in := v.(*replayInput)
	// One untimed adaptive replay fills the schedule memo and the pools.
	if _, err := sim.RunContinuous(sim.Config{Topology: in.topo, Algorithm: core.Adaptive}, in.traces[0]); err != nil {
		return err
	}
	minReps := r.minReps(len(in.traces))
	perTrace := make([][]float64, len(in.traces)) // reference seconds per repetition
	var repMs []float64
	jobs := 0
	begin := time.Now()
	for rep := 0; rep < minReps || !r.spent(begin); rep++ {
		k := rep % len(in.traces)
		results, d, err := r.replayOnce(in.topo, in.traces[k])
		r.op(len(core.Algorithms))
		if err != nil {
			r.fail(len(core.Algorithms), "trace %d: %v", k, err)
			continue
		}
		jobs += len(core.Algorithms) * len(in.traces[k].Jobs)
		r.checkReplay(in, k, results, perTrace[k] == nil)
		perTrace[k] = append(perTrace[k], d)
		repMs = append(repMs, d*1e3)
	}
	rate := pooledRate(perTrace, float64(len(core.Algorithms)*r.spec.Jobs))
	r.endToEnd(float64(jobs), rate, rate, repMs)
	return nil
}

// backfilled counts jobs that started before a job submitted earlier.
func backfilled(jobs []metrics.JobResult) int {
	n := 0
	latest := math.Inf(-1) // latest start among the jobs submitted before this one
	for _, j := range jobs {
		if latest > j.Start {
			n++
		}
		latest = math.Max(latest, j.Start)
	}
	return n
}
