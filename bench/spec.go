package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// The tables in this file are the benchmark's contract: workload names,
// sizes and repetition counts, and every metric name with its unit,
// direction and regression bound. BENCHMARK.json at the repository root is
// generated from them (`-manifest`) and bench_test.go keeps the two equal.

// runSeconds is how long one run measures unless -seconds says otherwise.
const runSeconds = 12

// workloadSpec sizes one workload. Every repetition count and trace size
// the harness uses lives here so the whole benchmark can be scaled in one
// place.
type workloadSpec struct {
	Name string
	Why  string

	// Jobs is the length of one synthesized trace.
	Jobs int
	// Traces is how many distinct traces a run derives from its seed; reps
	// cycle through them so seed-to-seed differences average out.
	Traces int
	// Candidates is the number of sub-seeds tried per trace; pickSeed
	// returns a typical one, which pins the heavy-tailed total work and
	// schedule memory without editing the trace (1 = take the first).
	Candidates int
	// MinReps is the least number of timed repetitions whatever -seconds
	// says.
	MinReps int
	// SetupProbes is how many child processes time the set-up: more where
	// it takes milliseconds and is mostly process start.
	SetupProbes int
}

const (
	wReplayTheta    = "replay_theta"
	wReplayIntrepid = "replay_intrepid"
	wSweepPaper     = "sweep_paper"
	wDaemonReplay   = "daemon_replay"
	wDaemonBacklog  = "daemon_backlog"
	wDaemonPaced    = "daemon_paced"
)

var workloads = []workloadSpec{
	{Name: wReplayTheta, Jobs: 1000, Traces: 32, Candidates: 1, MinReps: 32, SetupProbes: 31,
		Why: "Theta, narrow jobs: selector scratch, adaptive join, queue/EASY/event heap dominate; kernel-eval and Allocate speedups should barely move it"},
	{Name: wReplayIntrepid, Jobs: 1000, Traces: 4, Candidates: 513, MinReps: 4, SetupProbes: 7,
		Why: "Intrepid, jobs up to the whole machine: costmodel compile+eval and cluster.Allocate are >90% of the time; engine-loop speedups should not move it"},
	{Name: wSweepPaper, Jobs: 1000, Traces: 6, Candidates: 257, MinReps: 6, SetupProbes: 7,
		Why: "Validated Theta+Mira grids on min(nproc,4) workers: shared memo/pools under concurrency, audits on, topology and trace build inside the timed region, 30%-comm cells"},
	{Name: wDaemonReplay, Jobs: 60000, Traces: 1, Candidates: 1, MinReps: 2, SetupProbes: 15,
		Why: "Closed-loop serving at the preset's 0.85 load under a virtual clock: wire, admit, pass, placement and reads over a growing history; fully deterministic"},
	{Name: wDaemonBacklog, Jobs: 40000, Traces: 1, Candidates: 1, MinReps: 2, SetupProbes: 15,
		Why: "Same loop with arrivals twice as fast (1.7x capacity): queue grows without bound, so splice, per-pass sort, O(running^2) advance and large listings dominate"},
	{Name: wDaemonPaced, Jobs: 0, Traces: 1, Candidates: 1, MinReps: 1, SetupProbes: 9,
		Why: "Open loop on the wall clock, 2 pipelined connections at 4000 jobs/s: the concurrent reader/dispatcher/writer path, batch coalescing, timers and busy backpressure"},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Frame and read cadence of the closed-loop daemon workloads.
const (
	frameJobs      = 16   // jobs per submit_batch frame
	readEvery      = 64   // frames between queue/running/stats reads
	warmupJobs     = 2000 // throwaway daemon instance during set-up
	backlogSpeedup = 2.0  // daemon_backlog divides submit times by this
)

// Rungs of the open-loop workload. End-to-end metrics come from pacedRate.
var pacedRungs = []struct {
	Tag  string
	Rate float64 // jobs per wall second
}{{"r2k", 2000}, {"r4k", 4000}, {"r8k", 8000}, {"r16k", 16000}}

const (
	// pacedRate is a quarter of the quiet machine's capacity, so that the
	// slowest host regimes seen (0.4 x the quiet speed) still leave it
	// below the knee: at 8000 jobs/s they did not, and runs failed.
	pacedRate  = 4000.0
	pacedConns = 2
	// pacedRungSeconds is the length of one untraced rung; a run offers
	// pacedRate in as many rungs as fit into -seconds.
	pacedRungSeconds = 2.0
	// pacedWarmSeconds is the throwaway rung that ends set-up.
	pacedWarmSeconds = 0.25
	drainLimit       = 2.0 // seconds to wait for the machine to empty after a rung
	// kneeP95Ms and kneeLateMs define daemon.knee_rate: the highest rung
	// whose ack p95 and generator lateness p99 stay under these.
	kneeP95Ms  = 10.0
	kneeLateMs = 5.0
)

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median
}

// End-to-end metrics are defined for every workload and are never zero.
// Every time is in reference seconds (hostspeed.go), except that the paced
// workload's two rates are per wall second.
var endToEnd = []metricSpec{
	// jobs put through the system per second: placements (replay), cell-jobs (sweep), jobs acked (daemon)
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	// placement decisions made per second (daemon: stats.latency.starts delta, not acks)
	{"decisions_per_s", "starts/s", "higher", 0.25},
	// median time of one user-visible operation: a four-algorithm replay, one sweep, a 16-job frame round trip, or (paced) due-time to ack
	{"op_p50_ms", "ms", "lower", 0.25},
	// runtime.MemStats.Mallocs delta over the timed region per job
	{"allocs_per_job", "count", "lower", 0.08},
	// runtime.MemStats.TotalAlloc delta over the timed region per job
	{"kb_per_job", "KiB", "lower", 0.08},
	// process user+system CPU over the timed region per 1000 jobs, load generator included
	{"cpu_ms_per_kjob", "ms", "lower", 0.25},
	// VmHWM of the workload's process at exit
	{"peak_rss_mb", "MiB", "lower", 0.25},
	// median over child processes of process start to ready: topology, synthesis, tagging, daemon and listener start, one small cold operation
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics come from the traced run. A workload that does not
// exercise a layer reports 0 for its metrics.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{"sim.replay_ms.default", "ms", "lower", 0},              // median untraced RunContinuous wall time, default algorithm
		{"sim.replay_ms.greedy", "ms", "lower", 0},               // same, greedy
		{"sim.replay_ms.balanced", "ms", "lower", 0},             // same, balanced
		{"sim.replay_ms.adaptive", "ms", "lower", 0},             // same, adaptive
		{"core.select_us_per_job", "us", "lower", 0},             // shadow replay: Selector.Select of the algorithm under test, per placement
		{"core.select_ref_us_per_job", "us", "lower", 0},         // shadow replay: default Select for the Eq. 7 reference, per placement
		{"costmodel.price_cold_us_per_job", "us", "lower", 0},    // shadow replay: the CandidateCostMode pair as the engine calls it (compile + eval), per placement
		{"costmodel.price_warm_us_per_job", "us", "lower", 0},    // adaptive only: the same pair repeated at once (memo hit, eval only), per adaptive placement; not part of any sum
		{"costmodel.compile_share", "fraction", "lower", 0},      // adaptive only: (cold - warm) / cold
		{"costmodel.schedule_us_per_job", "us", "lower", 0},      // shadow replay: costmodel.ScheduleFor, per placement
		{"collective.schedule_build_ms", "ms", "lower", 0},       // uncached Pattern.Schedule over the trace's distinct (pattern, ranks)
		{"cluster.allocate_us_per_job", "us", "lower", 0},        // shadow replay: State.Allocate, per placement
		{"cluster.release_us_per_job", "us", "lower", 0},         // shadow replay: State.Release, per placement
		{"cluster.nodes_allocated", "count", "lower", 0},         // nodes handed out over the shadow replay (exact)
		{"costmodel.touched_leaves_mean", "count", "lower", 0},   // mean distinct leaf switches under a priced allocation (exact)
		{"sim.residual_us_per_job", "us", "lower", 0},            // (untraced wall - sum of shadow layers) per placement: queue order, EASY, event heap, results, join, GC
		{"sim.residual_share", "fraction", "lower", 0},           // the same as a share of the untraced wall time
		{"sim.validate_ms", "ms", "lower", 0},                    // sim.ValidateResultConfig on one result
		{"metrics.summarize_us", "us", "lower", 0},               // metrics.Summarize on one result
		{"sim.jobs_started", "count", "higher", 0},               // placements in the traced replays (exact)
		{"sim.backfilled_jobs", "count", "higher", 0},            // jobs that started before an earlier-submitted job (exact)
		{"core.select_calls", "count", "lower", 0},               // Select calls in the shadow replay (exact)
		{"costmodel.price_calls", "count", "lower", 0},           // cold CandidateCostMode calls in the shadow replay (exact)
		{"sim.exec_hours.adaptive", "h", "lower", 0},             // simulated total execution hours, adaptive (exact)
		{"sim.wait_hours.adaptive", "h", "lower", 0},             // simulated total wait hours, adaptive (exact)
		{"sim.exec_improv_pct", "%", "higher", 0},                // simulated execution-hours improvement of adaptive over default (exact)
		{"sim.avg_comm_cost.adaptive", "cost", "lower", 0},       // simulated mean Eq. 6 cost, adaptive (exact)
		{"search.anneal_ms_per_select", "ms", "lower", 0},        // core.Anneal (budget 256) Select on the first 32 priced states of the shadow replay
		{"topology.build_ms", "ms", "lower", 0},                  // building the machine topology
		{"workload.synthesize_ms", "ms", "lower", 0},             // Preset.Synthesize of one trace
		{"workload.tag_ms", "ms", "lower", 0},                    // Trace.Tag of one trace
		{"cluster.layout_ms", "ms", "lower", 0},                  // first cluster.New on a fresh topology (builds the shared layout)
		{"sim.cold_over_warm", "ratio", "lower", 0},              // first replay in the process over the median warm replay
		{"sweep.serial_cells_per_s", "cells/s", "higher", 0},     // one sweep at Parallelism 1
		{"sweep.parallel_efficiency", "fraction", "higher", 0},   // parallel rate / (workers x serial rate)
		{"sweep.theta_cell_ms", "ms", "lower", 0},                // mean cell time of the Theta-only sub-grid, serial
		{"sweep.mira_cell_ms", "ms", "lower", 0},                 // mean cell time of the Mira-only sub-grid, serial
		{"sweep.csv_ms", "ms", "lower", 0},                       // sweep.WriteCSV of one sweep's points
		{"sweep.full_memo_over_fresh", "ratio", "lower", 0},      // the same sweep in a process whose 256-entry schedule memo is already full, over a fresh process
		{"daemon.engine_us_per_job", "us", "lower", 0},           // submit_batch through the direct API (no socket), per job
		{"daemon.wire_us_per_job", "us", "lower", 0},             // wire round trip minus direct API, per job
		{"bench.encode_us_per_job", "us", "lower", 0},            // the client's request encoding, per job
		{"daemon.us_per_job_first_decile", "us", "lower", 0},     // frame round trip per job over the first tenth of the frames
		{"daemon.us_per_job_last_decile", "us", "lower", 0},      // the same over the last tenth
		{"daemon.slowdown_last_over_first", "ratio", "lower", 0}, // last decile over first decile
		{"daemon.status_us", "us", "lower", 0},                   // median status round trip
		{"daemon.queue_ms", "ms", "lower", 0},                    // median queue listing round trip
		{"daemon.running_ms", "ms", "lower", 0},                  // median running listing round trip
		{"daemon.stats_ms_first", "ms", "lower", 0},              // first stats round trip
		{"daemon.stats_ms_last", "ms", "lower", 0},               // last stats round trip (history at its largest)
		{"daemon.save_state_ms", "ms", "lower", 0},               // SaveState to a buffer at the end of the run
		{"daemon.state_mb", "MiB", "lower", 0},                   // size of that snapshot
		{"daemon.restore_ms", "ms", "lower", 0},                  // Restore from it
		{"daemon.starts", "count", "higher", 0},                  // jobs started (exact)
		{"daemon.completed", "count", "higher", 0},               // jobs completed (exact)
		{"daemon.queue_depth_end", "count", "lower", 0},          // queued jobs at the end (exact)
		{"daemon.queue_depth_max", "count", "lower", 0},          // largest queue listing seen (exact)
		{"daemon.running_max", "count", "lower", 0},              // largest running listing seen (exact)
	}
	for _, r := range pacedRungs {
		m = append(m,
			metricSpec{"daemon.ack_p50_ms." + r.Tag, "ms", "lower", 0},               // due-time to ack, median
			metricSpec{"daemon.ack_p95_ms." + r.Tag, "ms", "lower", 0},               // due-time to ack, 95th percentile
			metricSpec{"daemon.ack_p99_ms." + r.Tag, "ms", "lower", 0},               // due-time to ack, 99th percentile
			metricSpec{"daemon.engine_ack_p50_ms." + r.Tag, "ms", "lower", 0},        // the daemon's own receipt-to-ack median (stats.latency)
			metricSpec{"daemon.achieved_jobs_per_s." + r.Tag, "jobs/s", "higher", 0}, // jobs acked per second of the rung
			metricSpec{"daemon.started_frac." + r.Tag, "fraction", "higher", 0},      // jobs started / jobs acked when the rung ends
			metricSpec{"daemon.busy_retries." + r.Tag, "count", "lower", 0},          // frames resent after a busy response
			metricSpec{"daemon.wait_p50_vs." + r.Tag, "s", "lower", 0},               // median virtual queue wait (stats.latency)
			metricSpec{"bench.late_p99_ms." + r.Tag, "ms", "lower", 0},               // how late the generator sent a frame, 99th percentile
		)
	}
	m = append(m,
		metricSpec{"daemon.knee_rate", "jobs/s", "higher", 0},           // highest rung with ack p95 <= 10 ms, every job acked, the machine drained and lateness p99 <= 5 ms
		metricSpec{"bench.shadow_parity", "fraction", "higher", 0},      // share of priced jobs whose shadow costs equal the engine's bit for bit; must be 1
		metricSpec{"bench.trace_overhead_frac", "fraction", "lower", 0}, // traced wall over untraced wall, minus 1
	)
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	seen := map[string]bool{}
	for _, n := range allNames() {
		if !nameRE.MatchString(n) || seen[n] {
			return nil, fmt.Errorf("bench: bad or duplicate name %q", n)
		}
		seen[n] = true
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func allNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	for _, m := range endToEnd {
		out = append(out, m.Name)
	}
	for _, m := range perLayer {
		out = append(out, m.Name)
	}
	return out
}
