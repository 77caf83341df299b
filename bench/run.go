package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// run is the state of one (workload, seed, traced?) measurement.
type run struct {
	spec   workloadSpec
	seed   int64
	budget time.Duration
	tr     *tracer // non-nil on traced runs
	gold   *goldens
	log    io.Writer // human-readable notes (quartiles, sample counts)

	total     totals     // the run's timed regions
	host      *hostClock // host-speed samples around them
	childRSS  []float64  // VmHWM of each child process that did timed work, MiB
	attempted int
	failed    int
	errs      []string
	metrics   map[string]float64
}

// op counts n attempted operations.
func (r *run) op(n int) { r.attempted += n }

// fail counts n failed operations and keeps the first few reasons.
func (r *run) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// note prints a timing's quartiles and sample count beside its median.
func (r *run) note(name string, samples []float64, unit string) {
	fmt.Fprintf(r.log, "  %-28s median %.4g %s  [q1 %.4g, q3 %.4g, n=%d]\n", name,
		median(samples), unit, quantile(samples, 0.25), quantile(samples, 0.75), len(samples))
}

// check records a correctness fingerprint. On seed 1 it must equal the
// committed golden; on other seeds the workloads compare repetitions with
// each other instead.
func (r *run) check(key, got string) {
	r.op(1)
	if prev, seen := r.gold.got[key]; seen && prev != got {
		r.fail(1, "%s: %s differs between repetitions (%s, then %s)", r.spec.Name, key, prev, got)
		return
	}
	r.gold.got[key] = got
	if r.seed != 1 || r.gold.update {
		return
	}
	if want, ok := r.gold.want[key]; ok && want != got {
		r.fail(1, "%s: %s = %s, golden %s", r.spec.Name, key, got, want)
	}
}

// minReps is the least number of repetitions: the workload's own, and when
// rewriting the goldens enough to see every trace once.
func (r *run) minReps(traces int) int {
	if r.gold.update {
		return max(r.spec.MinReps, traces)
	}
	return r.spec.MinReps
}

// pooledRate is the throughput over the distinct traces a run repeated:
// each trace that was run contributes `work` jobs and its median
// repetition time (seconds), so a trace repeated more often than another
// does not weigh more.
func pooledRate(perTrace [][]float64, work float64) float64 {
	var jobs, wall float64
	for _, s := range perTrace {
		if len(s) > 0 {
			jobs += work
			wall += median(s)
		}
	}
	return ratio(jobs, wall)
}

// spent reports whether the run has measured for its budget.
func (r *run) spent(begin time.Time) bool { return time.Since(begin) >= r.budget }

// scaled runs work, which measures one region itself, under the host
// clock, adds the region to the run's totals and returns its
// wall time in reference seconds with the scale that was applied.
func (r *run) scaled(work func() region) (refWall, scale float64) {
	var reg region
	scale = r.host.bracket(func() { reg = work() })
	r.total.add(reg, scale)
	return reg.Wall.Seconds() * scale, scale
}

// timed is scaled for work this process does.
func (r *run) timed(work func()) (refWall, scale float64) {
	return r.scaled(func() region {
		var m meter
		m.start()
		work()
		return m.stop()
	})
}

// endToEnd fills the metrics every workload reports from the totals the
// workload measured inside its timed regions. Rates and opMs are in
// reference seconds; the raw wall-clock figures go to the log.
func (r *run) endToEnd(jobs, jobsPerS, decisionsPerS float64, opMs []float64) {
	r.set("jobs_per_s", jobsPerS)
	r.set("decisions_per_s", decisionsPerS)
	r.set("op_p50_ms", median(opMs))
	r.set("allocs_per_job", ratio(float64(r.total.Mallocs), jobs))
	r.set("kb_per_job", ratio(float64(r.total.Bytes)/1024, jobs))
	r.set("cpu_ms_per_kjob", ratio(r.total.RefCPU*1e3, jobs/1000))
	r.note("op_p50_ms", opMs, "ms")
	r.note("host_speed", r.host.scales, "x reference")
	fmt.Fprintf(r.log, "  raw wall clock: jobs_per_s %.6g  cpu_ms_per_kjob %.6g  (timed %.3f s wall, %.3f s reference)\n",
		ratio(jobs, r.total.Wall.Seconds()), ratio(ms(r.total.CPU), jobs/1000),
		r.total.Wall.Seconds(), r.total.RefWall)
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadFuncs are the three entry points of a workload: set-up (also
// what a set-up probe child runs), the untraced measurement, and the
// traced measurement.
type workloadFuncs struct {
	setup   func(r *run) (any, error)
	measure func(r *run, in any) error
	trace   func(r *run, in any) error
}

var workloadTable = map[string]workloadFuncs{
	wReplayTheta:    {setupReplay, measureReplay, traceReplay},
	wReplayIntrepid: {setupReplay, measureReplay, traceReplay},
	wSweepPaper:     {setupSweep, measureSweep, traceSweep},
	wDaemonReplay:   {setupDaemon, measureDaemon, traceDaemon},
	wDaemonBacklog:  {setupDaemon, measureDaemon, traceDaemon},
	wDaemonPaced:    {setupPaced, measurePaced, tracePaced},
}

// probeSetup times the set-up in fresh child processes, so process start,
// package initialisation and cold caches are part of every sample.
func probeSetup(spec workloadSpec, seed int64, host *hostClock) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	samples := make([]float64, 0, spec.SetupProbes)
	for i := 0; i < spec.SetupProbes; i++ {
		cmd := exec.Command(self, "-probe-setup", "-workload", spec.Name,
			"-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		var wall time.Duration
		var err error
		scale := host.bracket(func() {
			t0 := time.Now()
			err = cmd.Run()
			wall = time.Since(t0)
		})
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		samples = append(samples, wall.Seconds()*scale)
	}
	return samples, nil
}

// runWorkload measures one workload and returns the contract's result.
func runWorkload(spec workloadSpec, seed int64, seconds float64, traced bool,
	gold *goldens, traceOut string, log io.Writer) (result, []string, error) {
	r := &run{
		spec: spec, seed: seed, gold: gold, log: log,
		budget:  time.Duration(seconds * float64(time.Second)),
		metrics: make(map[string]float64),
	}
	if traced {
		r.tr = newTracer()
	}
	fns := workloadTable[spec.Name]
	var err error
	if r.host, err = startHostClock(); err != nil {
		return result{}, nil, err
	}
	defer r.host.stop()

	var setupSamples []float64
	if !traced {
		if setupSamples, err = probeSetup(spec, seed, r.host); err != nil {
			return result{}, nil, err
		}
	}
	in, err := fns.setup(r)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
	}
	if traced {
		err = fns.trace(r, in)
	} else {
		err = fns.measure(r, in)
	}
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	if r.host.err != nil {
		return result{}, nil, r.host.err
	}
	if traced && traceOut != "" {
		if err := r.tr.writeJSONL(traceOut); err != nil {
			return result{}, nil, err
		}
	}

	specs := perLayer
	if !traced {
		specs = endToEnd
		r.set("setup_s", median(setupSamples))
		r.note("setup_s", setupSamples, "s")
		// A workload that does its timed work in child processes reports
		// their median high-water mark.
		r.set("peak_rss_mb", max(peakRSSMiB(), median(r.childRSS)))
	}
	res := result{Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		v := r.metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(1, "%s: metric %s is not finite", spec.Name, m.Name)
			v = 0
		}
		if !traced && v == 0 {
			r.fail(1, "%s: end-to-end metric %s was not measured", spec.Name, m.Name)
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	res.Attempted, res.Failed, res.Correct = max(r.attempted, 1), r.failed, r.failed == 0
	return res, r.errs, nil
}

func (res result) line() string {
	b, err := json.Marshal(res)
	if err != nil {
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`
	}
	return string(b)
}
