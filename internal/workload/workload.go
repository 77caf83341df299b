// Package workload produces the job traces the evaluation runs on. The
// paper replays 1000-job logs from Intrepid, Theta and Mira; those logs are
// access-gated, so this package synthesises statistically matched traces
// (node counts, ≥90–99% power-of-two request sizes, heavy-tailed runtimes,
// bursty arrivals) from seeded generators, and can also import real logs in
// Standard Workload Format. Traces are then *tagged*: a chosen fraction of
// jobs becomes communication-intensive with a given pattern mix, exactly as
// the paper's methodology injects the classification (§5.1).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/swf"
	"repro/internal/topology"
)

// Job is one schedulable job.
type Job struct {
	ID      cluster.JobID
	Submit  float64 // seconds since trace start
	Runtime float64 // base runtime in seconds (execution time from the log)
	// Estimate is the user-requested walltime (SWF "requested time"); EASY
	// backfilling plans with it. Zero means "exact estimate" (= Runtime).
	Estimate float64
	// DependsOn holds the ID of a job that must complete before this one
	// may start (SWF "preceding job", SLURM --dependency=afterany). Zero
	// means no dependency.
	DependsOn cluster.JobID
	// ThinkTime is the minimum delay between the dependency's completion
	// and this job's eligibility (SWF field 18).
	ThinkTime float64
	Nodes     int
	// Class and Mix are assigned by Tag; a zero-value Job is
	// compute-intensive.
	Class cluster.Class
	Mix   collective.Mix
}

// EstimatedRuntime returns the walltime the scheduler plans with: the
// user's estimate when present, otherwise the exact runtime.
func (j Job) EstimatedRuntime() float64 {
	if j.Estimate > 0 {
		return j.Estimate
	}
	return j.Runtime
}

// Trace is an ordered job log over a specific machine size.
type Trace struct {
	Name         string
	MachineNodes int
	Jobs         []Job
}

// Validate checks trace consistency: ordered submits, sane sizes, unique
// job IDs, and dependencies on earlier jobs (Index).
func (t Trace) Validate() error {
	_, err := t.Index()
	return err
}

// Index validates the trace and returns the position of each job by ID.
// Job IDs must be unique: a job is allocated, released, killed and depended
// on by its ID, so two jobs with one ID would be one job to the scheduler.
func (t Trace) Index() (map[cluster.JobID]int, error) {
	prev := math.Inf(-1)
	ids := make(map[cluster.JobID]int, len(t.Jobs))
	for i, j := range t.Jobs {
		if _, dup := ids[j.ID]; dup {
			return nil, fmt.Errorf("workload: duplicate job ID %d", j.ID)
		}
		if j.Nodes < 1 || j.Nodes > t.MachineNodes {
			return nil, fmt.Errorf("workload: job %d requests %d nodes of %d", j.ID, j.Nodes, t.MachineNodes)
		}
		if j.Runtime <= 0 {
			return nil, fmt.Errorf("workload: job %d has runtime %v", j.ID, j.Runtime)
		}
		if j.Estimate < 0 {
			return nil, fmt.Errorf("workload: job %d has negative estimate %v", j.ID, j.Estimate)
		}
		if j.Submit < prev {
			return nil, fmt.Errorf("workload: job %d submitted before its predecessor (index %d)", j.ID, i)
		}
		prev = j.Submit
		if j.ThinkTime < 0 {
			return nil, fmt.Errorf("workload: job %d has negative think time", j.ID)
		}
		// Only earlier jobs are indexed yet: an unknown, later or same job
		// is not found.
		if _, ok := ids[j.DependsOn]; j.DependsOn != 0 && !ok {
			return nil, fmt.Errorf("workload: job %d depends on job %d, which is not an earlier job", j.ID, j.DependsOn)
		}
		if j.Class == cluster.CommIntensive {
			if err := j.Mix.Validate(); err != nil {
				return nil, err
			}
		}
		ids[j.ID] = i
	}
	return ids, nil
}

// WithDependencies returns a copy of the trace in which approximately
// `fraction` of jobs depend on a randomly chosen earlier job (afterany
// semantics) — the workflow chains production logs exhibit. Selection is
// seeded and deterministic.
func (t Trace) WithDependencies(fraction float64, seed int64) (Trace, error) {
	if fraction < 0 || fraction > 1 {
		return Trace{}, fmt.Errorf("workload: dependency fraction %v out of [0,1]", fraction)
	}
	out := t
	out.Jobs = append([]Job(nil), t.Jobs...)
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i < len(out.Jobs); i++ {
		if rng.Float64() >= fraction {
			continue
		}
		dep := rng.Intn(i)
		out.Jobs[i].DependsOn = out.Jobs[dep].ID
		out.Jobs[i].ThinkTime = float64(rng.Intn(300))
	}
	if err := out.Validate(); err != nil {
		return Trace{}, err
	}
	return out, nil
}

// Preset describes one of the evaluation machines.
type Preset struct {
	Name string
	// NewTopology builds the machine's interconnect.
	NewTopology func() *topology.Topology
	// MaxJobNodes caps request sizes (the paper's per-log maxima).
	MaxJobNodes int
	// Pow2Frac is the fraction of jobs with power-of-two node requests.
	Pow2Frac float64
	// Utilization is the offered load the arrival process targets.
	Utilization float64
	// Diurnal, when true, modulates the arrival rate with a 24-hour cycle
	// (3x more submissions mid-day than at night), the pattern production
	// logs show.
	Diurnal bool
}

// The three evaluation machines (§5.1): Intrepid (Blue Gene/P, 40K nodes,
// >99% power-of-two jobs, max request 40960), Theta (4,392 nodes, 90%
// power-of-two, max 512) and Mira (Blue Gene/Q, 48K nodes, >99%
// power-of-two, max 16384).
var (
	Intrepid = Preset{
		Name:        "Intrepid",
		NewTopology: topology.Intrepid,
		MaxJobNodes: 40960,
		Pow2Frac:    0.99,
		Utilization: 0.8,
	}
	Theta = Preset{
		Name:        "Theta",
		NewTopology: topology.Theta,
		MaxJobNodes: 512,
		Pow2Frac:    0.90,
		Utilization: 0.85,
	}
	Mira = Preset{
		Name:        "Mira",
		NewTopology: topology.Mira,
		MaxJobNodes: 16384,
		Pow2Frac:    0.99,
		Utilization: 0.8,
	}
)

// Presets lists the machines in the paper's row order.
var Presets = []Preset{Intrepid, Theta, Mira}

// PresetByName returns the named preset (case-sensitive, as presented).
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("workload: unknown machine %q", name)
}

// On returns the preset with its topology constructor replaced by one that
// hands back topo, for a caller that has built the machine already:
// Synthesize builds a topology per call only to read its node count.
func (p Preset) On(topo *topology.Topology) Preset {
	p.NewTopology = func() *topology.Topology { return topo }
	return p
}

// Synthesize builds a numJobs-long trace for the preset. The generator is
// fully determined by the seed:
//
//   - Sizes: with probability Pow2Frac a power of two, 2^U with U uniform
//     over the feasible exponents; otherwise uniform over [1, MaxJobNodes]
//     (then nudged off powers of two).
//   - Runtimes: lognormal around ~45 minutes, clamped to [60s, 48h] —
//     matching the heavy right tail of production logs.
//   - Arrivals: Poisson process whose rate makes the offered load
//     (node-seconds per second) equal Utilization × machine size, so queues
//     form without saturating.
func (p Preset) Synthesize(numJobs int, seed int64) Trace {
	if numJobs <= 0 {
		return Trace{Name: p.Name, MachineNodes: p.NewTopology().NumNodes()}
	}
	rng := rand.New(rand.NewSource(seed))
	machineNodes := p.NewTopology().NumNodes()
	maxExp := int(math.Floor(math.Log2(float64(p.MaxJobNodes))))

	jobs := make([]Job, numJobs)
	totalNodeSec := 0.0
	for i := range jobs {
		var nodes int
		if rng.Float64() < p.Pow2Frac {
			nodes = 1 << rng.Intn(maxExp+1)
		} else {
			nodes = 1 + rng.Intn(p.MaxJobNodes)
			if nodes&(nodes-1) == 0 && nodes > 1 {
				nodes-- // keep the non-power-of-two fraction honest
			}
		}
		if nodes > p.MaxJobNodes {
			nodes = p.MaxJobNodes
		}
		runtime := math.Exp(rng.NormFloat64()*1.3 + math.Log(45*60))
		if runtime < 60 {
			runtime = 60
		}
		if runtime > 48*3600 {
			runtime = 48 * 3600
		}
		runtime = math.Round(runtime)
		estimate := math.Round(runtime * (1 + 2*rng.Float64())) // 1-3x overestimate
		jobs[i] = Job{ID: cluster.JobID(i + 1), Nodes: nodes, Runtime: runtime, Estimate: estimate}
		totalNodeSec += float64(nodes) * runtime
	}
	// Arrival rate so the offered load matches the target utilisation.
	span := totalNodeSec / (p.Utilization * float64(machineNodes))
	meanGap := span / float64(numJobs)
	now := 0.0
	for i := range jobs {
		jobs[i].Submit = math.Round(now)
		gap := rng.ExpFloat64() * meanGap
		if p.Diurnal {
			// Rate modulation: busy around 14:00, quiet around 02:00. The
			// mean intensity of (1 + 0.5·sin) is 1, preserving offered load.
			hour := math.Mod(now/3600, 24)
			intensity := 1 + 0.5*math.Sin(2*math.Pi*(hour-8)/24)
			gap /= intensity
		}
		now += gap
	}
	return Trace{Name: p.Name, MachineNodes: machineNodes, Jobs: jobs}
}

// Tag returns a copy of the trace in which a commFraction of jobs is
// communication-intensive with the given mix and the rest are
// compute-intensive. Selection is a deterministic seeded shuffle, so the
// same (trace, fraction, seed) always tags the same jobs — required for
// comparing algorithms on identical inputs.
func (t Trace) Tag(commFraction float64, mix collective.Mix, seed int64) (Trace, error) {
	if commFraction < 0 || commFraction > 1 {
		return Trace{}, fmt.Errorf("workload: comm fraction %v out of [0,1]", commFraction)
	}
	if commFraction > 0 {
		if err := mix.Validate(); err != nil {
			return Trace{}, err
		}
	}
	out := t
	out.Jobs = append([]Job(nil), t.Jobs...)
	idx := make([]int, len(out.Jobs))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	nComm := int(math.Round(commFraction * float64(len(idx))))
	for pos, i := range idx {
		if pos < nComm {
			out.Jobs[i].Class = cluster.CommIntensive
			out.Jobs[i].Mix = mix
		} else {
			out.Jobs[i].Class = cluster.ComputeIntensive
			out.Jobs[i].Mix = collective.Mix{ComputeFrac: 1}
		}
	}
	return out, nil
}

// MustTag is Tag but panics on error.
func (t Trace) MustTag(commFraction float64, mix collective.Mix, seed int64) Trace {
	out, err := t.Tag(commFraction, mix, seed)
	if err != nil {
		panic(err)
	}
	return out
}

// Sample returns n distinct job indexes drawn without replacement with a
// seeded RNG, sorted ascending — the paper's "200 randomly selected jobs"
// for individual runs (§6.3).
func (t Trace) Sample(n int, seed int64) []int {
	if n >= len(t.Jobs) {
		idx := make([]int, len(t.Jobs))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(t.Jobs))[:n]
	sort.Ints(idx)
	return idx
}

// FromSWF converts an SWF log into a trace over a machine with
// machineNodes nodes, treating processors as nodes (the paper's logs are
// node-granular). Jobs with unknown runtime or size, or requests exceeding
// the machine, are skipped. At most maxJobs jobs are taken (0 = all), as
// the paper uses the first 1000 jobs of each log.
func FromSWF(log *swf.Log, name string, machineNodes, maxJobs int) Trace {
	t := Trace{Name: name, MachineNodes: machineNodes}
	base := int64(-1)
	for _, j := range log.Jobs {
		if maxJobs > 0 && len(t.Jobs) == maxJobs {
			break
		}
		nodes := j.Procs()
		if nodes < 1 || nodes > machineNodes || j.Runtime <= 0 || j.Submit < 0 {
			continue
		}
		if base < 0 {
			base = j.Submit
		}
		estimate := 0.0
		if j.ReqTime > 0 {
			estimate = float64(j.ReqTime)
		}
		job := Job{
			ID:       cluster.JobID(j.ID),
			Submit:   float64(j.Submit - base),
			Runtime:  float64(j.Runtime),
			Estimate: estimate,
			Nodes:    nodes,
		}
		if j.PrecedingJob > 0 {
			job.DependsOn = cluster.JobID(j.PrecedingJob)
			if j.ThinkTime > 0 {
				job.ThinkTime = float64(j.ThinkTime)
			}
		}
		t.Jobs = append(t.Jobs, job)
	}
	sort.SliceStable(t.Jobs, func(a, b int) bool { return t.Jobs[a].Submit < t.Jobs[b].Submit })
	// Drop dependencies on jobs that were filtered out or ordered after the
	// dependant (the archive contains such records).
	seen := make(map[cluster.JobID]bool, len(t.Jobs))
	for i := range t.Jobs {
		if dep := t.Jobs[i].DependsOn; dep != 0 && !seen[dep] {
			t.Jobs[i].DependsOn = 0
			t.Jobs[i].ThinkTime = 0
		}
		seen[t.Jobs[i].ID] = true
	}
	return t
}

// ToSWF renders the trace as an SWF log (classes are not representable in
// SWF and are dropped; re-tag after reimporting).
func (t Trace) ToSWF() *swf.Log {
	log := &swf.Log{Header: []string{
		fmt.Sprintf(" Computer: %s (synthetic reproduction trace)", t.Name),
		fmt.Sprintf(" MaxProcs: %d", t.MachineNodes),
	}}
	for _, j := range t.Jobs {
		log.Jobs = append(log.Jobs, swf.Job{
			ID:           int(j.ID),
			Submit:       int64(j.Submit),
			Wait:         -1,
			Runtime:      int64(j.Runtime),
			UsedProcs:    j.Nodes,
			AvgCPUTime:   -1,
			UsedMemory:   -1,
			ReqProcs:     j.Nodes,
			ReqTime:      int64(j.EstimatedRuntime()),
			ReqMemory:    -1,
			Status:       1,
			UserID:       -1,
			GroupID:      -1,
			AppID:        -1,
			QueueID:      -1,
			PartitionID:  -1,
			PrecedingJob: precedingOrUnknown(j),
			ThinkTime:    thinkOrUnknown(j),
		})
	}
	return log
}

func precedingOrUnknown(j Job) int {
	if j.DependsOn != 0 {
		return int(j.DependsOn)
	}
	return -1
}

func thinkOrUnknown(j Job) int64 {
	if j.DependsOn != 0 {
		return int64(j.ThinkTime)
	}
	return -1
}

// Stats summarises a trace for documentation and sanity checks.
type Stats struct {
	Jobs         int
	CommJobs     int
	Pow2Jobs     int
	MinNodes     int
	MaxNodes     int
	TotalNodeSec float64
	SpanSec      float64
}

// ComputeStats scans the trace.
func (t Trace) ComputeStats() Stats {
	s := Stats{Jobs: len(t.Jobs), MinNodes: math.MaxInt}
	lastSubmit := 0.0
	for _, j := range t.Jobs {
		if j.Class == cluster.CommIntensive {
			s.CommJobs++
		}
		if j.Nodes&(j.Nodes-1) == 0 {
			s.Pow2Jobs++
		}
		if j.Nodes < s.MinNodes {
			s.MinNodes = j.Nodes
		}
		if j.Nodes > s.MaxNodes {
			s.MaxNodes = j.Nodes
		}
		s.TotalNodeSec += float64(j.Nodes) * j.Runtime
		if j.Submit > lastSubmit {
			lastSubmit = j.Submit
		}
	}
	if s.Jobs == 0 {
		s.MinNodes = 0
	}
	s.SpanSec = lastSubmit
	return s
}
