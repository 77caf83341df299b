package main

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/daemon"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Every input is a pure function of the run seed. Nothing here reads a
// clock or the environment.

const (
	commFraction = 0.9 // share of jobs tagged communication-intensive
	commShare    = 0.7 // share of a comm job's runtime spent communicating
	tagOffset    = 17  // Tag seed = trace seed + tagOffset, as sweep.Run does
)

// Seed streams, so no two inputs share a sub-seed.
const (
	streamReplay = iota + 1
	streamSweep
	streamDaemon
	streamPaced
)

// onTopology returns the preset with its topology constructor replaced by
// one that hands back topo: Synthesize builds a topology per call only to
// read the node count, which would dominate candidate selection.
func onTopology(p workload.Preset, topo *topology.Topology) workload.Preset {
	p.NewTopology = func() *topology.Topology { return topo }
	return p
}

// pickSeed tries `candidates` sub-seeds and returns a typical one. Job
// sizes are heavy-tailed, so two statistics of a 1000-job trace vary far
// more between seeds than any regression bound: the total nodes requested
// (±20%; it sets the replay's time) and the sizes of its ten or so
// non-power-of-two jobs (each adds a schedule of up to 5 MB to the
// process-global memo; they set its memory). pickSeed keeps the eighth of
// the candidates closest to the median work and of those returns the one
// with the median schedule mass. Every seed's trace is still an unedited
// Synthesize output, but runs with different seeds are comparable.
func pickSeed(seed int64, stream, k, candidates int, proxy func(int64) traceStats) int64 {
	if candidates <= 1 {
		return subSeed(seed, stream, k<<12)
	}
	type cand struct {
		seed int64
		traceStats
	}
	cs := make([]cand, candidates)
	for c := range cs {
		s := subSeed(seed, stream, k<<12|c)
		cs[c] = cand{s, proxy(s)}
	}
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].work != cs[b].work {
			return cs[a].work < cs[b].work
		}
		return cs[a].seed < cs[b].seed
	})
	keep := max(1, candidates/8)
	mid := cs[(len(cs)-keep)/2 : (len(cs)-keep)/2+keep]
	sort.Slice(mid, func(a, b int) bool {
		if mid[a].mass != mid[b].mass {
			return mid[a].mass < mid[b].mass
		}
		return mid[a].seed < mid[b].seed
	})
	return mid[len(mid)/2].seed
}

// traceStats are the two statistics pickSeed pins.
type traceStats struct {
	work float64 // nodes requested by the jobs that get priced
	mass float64 // sum of n*log2(n) over the distinct non-power-of-two sizes priced
}

// statsOf scans a trace. With pricedOnly, only communication-intensive
// multi-node jobs count (a tagged replay trace); without, every job (a
// sweep prices a different subset in every cell).
func statsOf(tr workload.Trace, pricedOnly bool) traceStats {
	var st traceStats
	seen := map[int]bool{}
	for _, j := range tr.Jobs {
		if pricedOnly && (j.Class != cluster.CommIntensive || j.Nodes <= 1) {
			continue
		}
		n := j.Nodes
		st.work += float64(n)
		if n&(n-1) != 0 && !seen[n] {
			seen[n] = true
			st.mass += float64(n) * math.Log2(float64(n))
		}
	}
	return st
}

// replayMachine is the machine and collective of a replay workload.
type replayMachine struct {
	preset  workload.Preset
	pattern collective.Pattern
}

var replayMachines = map[string]replayMachine{
	wReplayTheta:    {workload.Theta, collective.RHVD},
	wReplayIntrepid: {workload.Intrepid, collective.RD},
}

// taggedTrace is one replay input: Synthesize, Tag, then jitter.
func taggedTrace(p workload.Preset, pat collective.Pattern, jobs int, seed int64) (workload.Trace, error) {
	tr, err := p.Synthesize(jobs, seed).Tag(commFraction,
		collective.SinglePattern(pat, commShare), seed+tagOffset)
	if err != nil {
		return workload.Trace{}, err
	}
	addJitter(&tr, seed)
	return tr, nil
}

// addJitter adds a per-job fraction in [0.25, 0.75) seconds to every
// runtime (and estimate). Synthesized submit times and runtimes are whole
// seconds, so completions otherwise tie with arrivals and the engine's
// order within one instant cannot be recovered from a Result; with the
// fraction every instant carries one event and the shadow replay
// reproduces the engine's sequence of cluster states exactly.
func addJitter(tr *workload.Trace, seed int64) {
	for i := range tr.Jobs {
		u := float64(mix64(uint64(seed)^mix64(uint64(i)))>>11) / (1 << 53)
		f := 0.25 + 0.5*u
		tr.Jobs[i].Runtime += f
		tr.Jobs[i].Estimate += f
	}
}

// replayTraces builds the workload's traces on an already built topology.
func replayTraces(w workloadSpec, topo *topology.Topology, seed int64) ([]workload.Trace, error) {
	m := replayMachines[w.Name]
	p := onTopology(m.preset, topo)
	traces := make([]workload.Trace, w.Traces)
	for k := range traces {
		s := pickSeed(seed, streamReplay, k, w.Candidates, func(s int64) traceStats {
			tr, err := p.Synthesize(w.Jobs, s).Tag(commFraction,
				collective.SinglePattern(m.pattern, commShare), s+tagOffset)
			if err != nil {
				return traceStats{}
			}
			return statsOf(tr, true)
		})
		tr, err := taggedTrace(p, m.pattern, w.Jobs, s)
		if err != nil {
			return nil, err
		}
		traces[k] = tr
	}
	return traces, nil
}

// sweepSeeds picks one Grid.Seed per sub-sweep, by Mira's trace: the Mira
// cells are >95% of a sweep's time.
func sweepSeeds(w workloadSpec, mira *topology.Topology, seed int64) []int64 {
	p := onTopology(workload.Mira, mira)
	seeds := make([]int64, w.Traces)
	for k := range seeds {
		seeds[k] = pickSeed(seed, streamSweep, k, w.Candidates, func(s int64) traceStats {
			return statsOf(p.Synthesize(w.Jobs, s), false)
		})
	}
	return seeds
}

// daemonInput is the submission stream of a daemon workload: specs in
// trace order with their virtual submit times.
type daemonInput struct {
	topo   *topology.Topology
	specs  []daemon.SubmitSpec
	submit []float64 // virtual seconds
	// statusOf[f] is the index of an earlier job whose status is read
	// after frame f.
	statusOf []int
}

var daemonPatterns = []string{"RD", "RHVD", "Binomial"}

// daemonSpecs turns a Theta trace into wire submissions: 90% comm with a
// seeded pattern, share 0.7. speedup divides the submit times.
func daemonSpecs(topo *topology.Topology, jobs int, seed int64, stream int, speedup float64) *daemonInput {
	p := onTopology(workload.Theta, topo)
	tr := p.Synthesize(jobs, subSeed(seed, stream, 0))
	rng := rand.New(rand.NewSource(subSeed(seed, stream, 1)))
	in := &daemonInput{
		topo:   topo,
		specs:  make([]daemon.SubmitSpec, len(tr.Jobs)),
		submit: make([]float64, len(tr.Jobs)),
	}
	for i, j := range tr.Jobs {
		spec := daemon.SubmitSpec{Nodes: j.Nodes, Runtime: j.Runtime}
		if rng.Float64() < commFraction {
			spec.Class = "comm"
			spec.Pattern = daemonPatterns[rng.Intn(len(daemonPatterns))]
			spec.CommShare = commShare
		}
		in.specs[i] = spec
		in.submit[i] = j.Submit / speedup
	}
	frames := (len(in.specs) + frameJobs - 1) / frameJobs
	in.statusOf = make([]int, frames)
	for f := range in.statusOf {
		in.statusOf[f] = rng.Intn(min((f+1)*frameJobs, len(in.specs)))
	}
	return in
}

// span is the virtual duration of the submission stream.
func (in *daemonInput) span() float64 {
	if len(in.submit) == 0 {
		return 0
	}
	return in.submit[len(in.submit)-1] - in.submit[0]
}
