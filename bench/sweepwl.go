package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Every timed sweep runs in a fresh child process, as a cawsweep
// invocation would. The process-global schedule memo holds at most 256
// (pattern, ranks) entries and never evicts, so inside one long-lived
// process the cost of a sweep depends on which sizes earlier sweeps
// happened to leave in the memo; a fresh process makes each repetition
// see the same (empty) memo. sweep.full_memo_over_fresh measures what the
// full memo costs.

// sweepInput is one Grid.Seed per sub-sweep and the worker count.
type sweepInput struct {
	seeds   []int64
	workers int
}

var sweepMachines = []workload.Preset{workload.Theta, workload.Mira}

// sweepJob tells a child process which sweep to run.
type sweepJob struct {
	Seed     int64    `json:"seed"`
	K        int      `json:"k"`
	Jobs     int      `json:"jobs"`
	Workers  int      `json:"workers"`
	Machines []string `json:"machines"`
	// Prefill first runs Theta under all three patterns, untimed, which
	// fills the schedule memo the way the paper's full grid does before it
	// reaches its Mira cells.
	Prefill bool `json:"prefill"`
}

// sweepDone is the child's one line of output.
type sweepDone struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	Mallocs uint64  `json:"mallocs"`
	Bytes   uint64  `json:"bytes"`
	RSSMiB  float64 `json:"rss_mib"`
	Cells   int     `json:"cells"`
	Digest  string  `json:"digest"`
	CSVMs   float64 `json:"csv_ms"`
}

// grid is sub-sweep K: the job's machines, one of the paper's three
// patterns, 30% and 90% comm jobs, the four algorithms. With both
// machines that is 16 validated cells; cycling the pattern and the seed
// over the sub-sweeps covers the paper's 48-cell grid with six different
// traces per machine instead of one.
func (j sweepJob) grid() (sweep.Grid, error) {
	g := sweep.Grid{
		Patterns:      []collective.Pattern{collective.Patterns[j.K%len(collective.Patterns)]},
		CommFractions: []float64{0.3, commFraction},
		CommShares:    []float64{commShare},
		Algorithms:    core.Algorithms,
		Jobs:          j.Jobs,
		Seed:          j.Seed,
		Parallelism:   j.Workers,
	}
	for _, name := range j.Machines {
		p, err := workload.PresetByName(name)
		if err != nil {
			return g, err
		}
		g.Machines = append(g.Machines, p)
	}
	return g, nil
}

// sweepChild is the child process: run the sweep, print sweepDone.
func sweepChild(arg string) error {
	var job sweepJob
	if err := json.Unmarshal([]byte(arg), &job); err != nil {
		return err
	}
	g, err := job.grid()
	if err != nil {
		return err
	}
	if job.Prefill {
		fill := g
		fill.Machines = []workload.Preset{workload.Theta}
		fill.Patterns = collective.Patterns
		if _, err := sweep.Run(fill); err != nil {
			return err
		}
	}
	runtime.GC()
	var m meter
	m.start()
	points, err := sweep.Run(g)
	reg := m.stop()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	t0 := time.Now()
	err = sweep.WriteCSV(&buf, points)
	csv := time.Since(t0)
	if err != nil {
		return err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return json.NewEncoder(os.Stdout).Encode(sweepDone{
		WallS: reg.Wall.Seconds(), CPUS: reg.CPU.Seconds(), Mallocs: reg.Mallocs, Bytes: reg.Bytes,
		RSSMiB: peakRSSMiB(), Cells: len(points), Digest: hex64(h.Sum64()), CSVMs: ms(csv),
	})
}

func machineNames(ps []workload.Preset) []string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// sweepOnce runs one sweep in a child under the host clock, adds
// the child's timed region to the run's totals and checks its CSV under
// key. It returns the child's report and the sweep's time in reference
// seconds.
func (r *run) sweepOnce(job sweepJob, key string) (sweepDone, float64, error) {
	var done sweepDone
	g, err := job.grid()
	if err != nil {
		return done, 0, err
	}
	r.op(g.Size())
	arg, err := json.Marshal(job)
	if err != nil {
		return done, 0, err
	}
	self, err := os.Executable()
	if err != nil {
		return done, 0, err
	}
	cmd := exec.Command(self, "-sweep-child", string(arg))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	refWall, _ := r.scaled(func() region {
		s := r.tr.begin("sweep.run", -1, int64(job.K))
		var out []byte
		out, err = cmd.Output()
		r.tr.end(s)
		if err == nil {
			err = json.Unmarshal(out, &done)
		}
		return region{time.Duration(done.WallS * float64(time.Second)),
			time.Duration(done.CPUS * float64(time.Second)), done.Mallocs, done.Bytes}
	})
	if err != nil {
		r.fail(g.Size(), "sweep %d: %v %s", job.K, err, strings.TrimSpace(stderr.String()))
		return done, 0, fmt.Errorf("sweep %d: %w", job.K, err)
	}
	r.childRSS = append(r.childRSS, done.RSSMiB)
	r.check(key, done.Digest)
	return done, refWall, nil
}

func (in *sweepInput) job(r *run, k int) sweepJob {
	return sweepJob{Seed: in.seeds[k], K: k, Jobs: r.spec.Jobs, Workers: in.workers,
		Machines: machineNames(sweepMachines)}
}

func setupSweep(r *run) (any, error) {
	in := &sweepInput{
		seeds:   sweepSeeds(r.spec, topology.Mira(), r.seed),
		workers: min(runtime.NumCPU(), 4),
	}
	cold := in.job(r, 0)
	cold.Jobs = coldJobs
	g, err := cold.grid()
	if err != nil {
		return nil, err
	}
	_, err = sweep.Run(g)
	return in, err
}

func sweepKey(k int) string { return fmt.Sprintf("sweep%d.csv", k) }

func measureSweep(r *run, v any) error {
	in := v.(*sweepInput)
	minReps := r.minReps(len(in.seeds))
	perSeed := make([][]float64, len(in.seeds))
	var repMs []float64
	cells, jobs := 0, 0
	begin := time.Now()
	for rep := 0; rep < minReps || !r.spent(begin); rep++ {
		k := rep % len(in.seeds)
		done, d, err := r.sweepOnce(in.job(r, k), sweepKey(k))
		if err != nil {
			continue
		}
		cells = done.Cells
		jobs += done.Cells * r.spec.Jobs
		perSeed[k] = append(perSeed[k], d)
		repMs = append(repMs, d*1e3)
	}
	rate := pooledRate(perSeed, float64(cells*r.spec.Jobs))
	r.endToEnd(float64(jobs), rate, rate, repMs)
	return nil
}

func traceSweep(r *run, v any) error {
	in := v.(*sweepInput)
	par, _, err := r.sweepOnce(in.job(r, 0), sweepKey(0))
	if err != nil {
		return err
	}
	serial := in.job(r, 0)
	serial.Workers = 1
	ser, _, err := r.sweepOnce(serial, sweepKey(0))
	if err != nil {
		return err
	}
	serialRate := float64(ser.Cells) / ser.WallS
	r.set("sweep.serial_cells_per_s", serialRate)
	r.set("sweep.parallel_efficiency", float64(par.Cells)/par.WallS/(float64(in.workers)*serialRate))
	r.set("sweep.csv_ms", par.CSVMs)
	for _, m := range sweepMachines {
		one := serial
		one.Machines = []string{m.Name}
		done, _, err := r.sweepOnce(one, "sweep0."+m.Name+".csv")
		if err != nil {
			return err
		}
		r.set("sweep."+strings.ToLower(m.Name)+"_cell_ms", done.WallS*1e3/float64(done.Cells))
	}
	full := in.job(r, 0)
	full.Prefill = true
	filled, _, err := r.sweepOnce(full, sweepKey(0))
	if err != nil {
		return err
	}
	r.set("sweep.full_memo_over_fresh", ratio(filled.WallS, par.WallS))
	return nil
}
