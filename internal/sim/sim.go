// Package sim is the discrete-event cluster simulator that stands in for
// the paper's SLURM frontend emulation (§5.1–5.2). It replays a job trace
// against a topology with FIFO + EASY-backfilling scheduling (SLURM's
// default policy), delegates node selection to one of the core allocation
// algorithms, and applies the paper's runtime model: a
// communication-intensive job's execution time is its trace runtime with
// the communication share scaled by Cost_jobaware/Cost_default (Eq. 7),
// where the reference cost is what the default algorithm would have chosen
// from the same cluster state.
package sim

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Config parameterises a simulation run. The zero value of the optional
// fields gives the paper's setup: EASY backfilling on, effective-hops cost.
type Config struct {
	// Topology is the machine interconnect (required).
	Topology *topology.Topology
	// Algorithm is the node-selection policy under test.
	Algorithm core.Algorithm
	// DisableBackfill turns off EASY backfilling (ablation; SLURM's default
	// FIFO+backfill corresponds to false).
	DisableBackfill bool
	// CostMode selects the communication cost function (ablation; the
	// paper's Eq. 6 corresponds to the zero value).
	CostMode costmodel.Mode
	// RankRemap enables post-allocation process mapping (§7 future work):
	// ranks are reordered over the selected nodes to reduce the dominant
	// pattern's Eq. 6 cost.
	RankRemap bool
	// Policy orders the waiting queue (default FIFO, the paper's setup).
	Policy Policy
	// AnnealBudget tunes core.Anneal's search budget in evaluated
	// candidate moves (0 = search.DefaultBudget, negative = seed
	// passthrough, i.e. bit-identical to core.Adaptive). Ignored by the
	// other algorithms.
	AnnealBudget int
	// Faults is the node failure/drain/repair event trace injected into the
	// run. A hard failure kills the job running on the node and requeues it
	// at the failure time (SLURM's requeue-on-node-fail); drains let running
	// work finish. A nil trace reproduces the fault-free simulator
	// bit-identically.
	Faults faults.Trace
	// Reference runs the whole simulation on a reference state
	// (cluster.NewReference): subtree recounts, uncached Eq. 5/6 loops,
	// tentative allocation for candidate pricing. Results are bit-identical
	// to the optimized run's; the differential harness proves it by running
	// both, concurrently.
	Reference bool
}

// newState returns the empty cluster state a run of the given mode starts on.
func newState(topo *topology.Topology, reference bool) *cluster.State {
	if reference {
		return cluster.NewReference(topo)
	}
	return cluster.New(topo)
}

// Result is the outcome of a continuous run.
type Result struct {
	Algorithm core.Algorithm
	// MachineNodes is the machine size the trace ran on.
	MachineNodes int
	Jobs         []metrics.JobResult
	Summary      metrics.Summary
	// Utilization is delivered node-seconds over machine capacity across
	// the makespan.
	Utilization float64
	// Kernel names the cost-evaluation path the run's state took
	// (costmodel.KernelPath): "aggregated", the one-pass fast path, or
	// "reference" under Config.Reference.
	Kernel string
}

type eventKind uint8

const (
	evArrive eventKind = iota
	evComplete
	evFail   // node goes down hard; its job is killed and requeued
	evDrain  // node leaves service gracefully; running work finishes
	evRepair // node returns to service
	evWake   // a queued dependant's think time has passed
)

type event struct {
	time float64
	seq  int64 // tiebreaker for determinism
	kind eventKind
	job  int // index into the trace (evArrive/evComplete)
	node int // node ID (evFail/evDrain/evRepair)
	// requeues is the job's Requeues when an evComplete was scheduled: a
	// kill counts one more, so the completion of a killed attempt arrives
	// stale and is ignored.
	requeues int
}

// eventQueue is a binary min-heap of events in (time, seq) order. seq is
// unique, so the pop order is a total order whatever the heap's shape.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

// pop removes and returns the earliest event; the queue must not be empty.
func (q *eventQueue) pop() event {
	h := *q
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// jobState is where a job is in its run; the zero value is a job not
// started yet, whether or not it has arrived.
type jobState uint8

const (
	queued  jobState = iota // not started yet, or killed and queued again
	running                 // holds its nodes; its result's Start is set
	done                    // completed; its result's End is its completion
)

type engine struct {
	cfg      Config
	trace    workload.Trace
	st       *cluster.State
	selector core.Selector
	defSel   core.Selector // nil under Default (ReferenceSelector)
	scratch  core.Scratch  // every placement's working set and candidates

	events eventQueue
	seq    int64
	now    float64          // the time of the event being handled
	queue  sched.Queue[int] // submitted job indexes, in the policy's order
	// core is the shared FIFO + EASY pass and the running set, keyed by
	// trace index.
	core sched.Core[int]

	// results[i] is job i's record: its requeue accounting from the first
	// kill on, and its start, end and costs from each start. state[i] says
	// which of them hold.
	results []metrics.JobResult
	state   []jobState

	// index resolves job IDs to trace indexes (workload.Trace.Index), for
	// dependencies (SWF "preceding job") and fault victims; deps says
	// whether any job has a dependency.
	index map[cluster.JobID]int
	deps  bool
}

// RunContinuous replays the whole trace with its original submit times
// (the paper's "continuous runs").
func RunContinuous(cfg Config, trace workload.Trace) (*Result, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("sim: nil topology")
	}
	index, err := trace.Index()
	if err != nil {
		return nil, err
	}
	if trace.MachineNodes > cfg.Topology.NumNodes() {
		return nil, fmt.Errorf("sim: trace needs %d nodes, topology has %d",
			trace.MachineNodes, cfg.Topology.NumNodes())
	}
	if err := cfg.Faults.Validate(cfg.Topology.NumNodes()); err != nil {
		return nil, err
	}
	sel, err := core.NewWith(cfg.Algorithm, core.Options{AnnealBudget: cfg.AnnealBudget})
	if err != nil {
		return nil, err
	}
	policy, jobs := cfg.Policy, trace.Jobs
	e := &engine{
		cfg:      cfg,
		trace:    trace,
		st:       newState(cfg.Topology, cfg.Reference),
		selector: sel,
		defSel:   ReferenceSelector(cfg.Algorithm),
		events:   make(eventQueue, 0, len(trace.Jobs)+len(cfg.Faults)),
		queue:    sched.NewQueue(func(a, b int) bool { return policy.less(jobs, a, b) }),
		results:  make([]metrics.JobResult, len(trace.Jobs)),
		state:    make([]jobState, len(trace.Jobs)),
		index:    index,
	}
	e.core = sched.Core[int]{
		Free: e.st.FreeTotal, Job: e.job, Start: e.start,
		Backfill: !cfg.DisableBackfill,
	}
	for i, j := range trace.Jobs {
		e.deps = e.deps || j.DependsOn != 0
		e.push(event{time: j.Submit, kind: evArrive, job: i})
	}
	for _, fe := range cfg.Faults {
		kind := evFail
		switch fe.Kind {
		case faults.Fail:
		case faults.Drain:
			kind = evDrain
		case faults.Repair:
			kind = evRepair
		default:
			return nil, fmt.Errorf("sim: unknown fault kind %d", uint8(fe.Kind))
		}
		e.push(event{time: fe.Time, kind: kind, node: fe.Node})
	}
	if err := e.loop(); err != nil {
		return nil, err
	}
	// The fast-path counters (per-switch free totals, leaf aggregates) must
	// agree with a recount from first principles once the trace drains.
	if err := e.st.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("sim: post-run state check: %w", err)
	}
	res := &Result{
		Algorithm:    cfg.Algorithm,
		MachineNodes: cfg.Topology.NumNodes(),
		Jobs:         e.results,
		Kernel:       costmodel.KernelPath(e.st),
	}
	res.Summary = metrics.Summarize(res.Jobs)
	if res.Summary.MakespanHours > 0 {
		res.Utilization = res.Summary.TotalNodeHours /
			(res.Summary.MakespanHours * float64(res.MachineNodes))
	}
	return res, nil
}

func (e *engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
}

func (e *engine) loop() error {
	guard := 0
	n := len(e.trace.Jobs) + len(e.cfg.Faults)
	limit := 10 * n * (n + 2)
	for len(e.events) > 0 {
		guard++
		if guard > limit && limit > 0 {
			return fmt.Errorf("sim: event budget exceeded (livelock?)")
		}
		ev := e.events.pop()
		now := ev.time
		e.now = now
		switch ev.kind {
		case evArrive:
			e.queue.Add(ev.job, e.trace.Jobs[ev.job].Nodes)
			if at := e.eligibleAt(ev.job); at > now && !math.IsInf(at, 1) {
				e.push(event{time: at, kind: evWake})
			}
		case evComplete:
			if ev.requeues != e.results[ev.job].Requeues {
				// Completion of a killed attempt: the job was requeued (and
				// possibly restarted) after this event was scheduled.
				continue
			}
			if _, ok := e.core.Running.Remove(int64(ev.job)); !ok {
				return fmt.Errorf("sim: completion for job index %d not running", ev.job)
			}
			if err := e.st.Release(e.trace.Jobs[ev.job].ID); err != nil {
				return err
			}
			e.state[ev.job] = done
			e.wakeDependants(ev.job, now)
		case evFail:
			victim, err := e.st.Fail(ev.node)
			if err != nil {
				return err
			}
			if victim >= 0 {
				if err := e.requeue(e.index[victim], now); err != nil {
					return err
				}
			}
		case evDrain:
			if err := e.st.Drain(ev.node); err != nil {
				return err
			}
		case evRepair:
			if err := e.st.Repair(ev.node); err != nil {
				return err
			}
		case evWake:
		}
		// The shared pass: the head first, then EASY backfilling behind its
		// reservation. A head that down nodes keep from fitting holds an
		// unreachable one until a repair; without faults no head is
		// unsatisfiable, since no job needs more nodes than the machine has.
		if err := e.core.Pass(&e.queue, now); err != nil {
			return err
		}
	}
	if e.queue.Len() > 0 || len(e.core.Running) > 0 {
		return fmt.Errorf("sim: %d queued and %d running jobs at end of events",
			e.queue.Len(), len(e.core.Running))
	}
	return nil
}

// eligibleAt returns the time job idx may start from: its dependency's
// completion plus its think time, +Inf while the dependency has not
// completed, and -Inf for a job without one.
func (e *engine) eligibleAt(idx int) float64 {
	j := e.trace.Jobs[idx]
	if j.DependsOn == 0 {
		return math.Inf(-1)
	}
	dep := e.index[j.DependsOn]
	if e.state[dep] != done {
		return math.Inf(1)
	}
	return e.results[dep].End + j.ThinkTime
}

// wakeDependants runs a pass at the instant each queued dependant of job idx,
// which completed at now, becomes eligible, where its think time puts that
// instant after now; the pass after this completion serves the others.
func (e *engine) wakeDependants(idx int, now float64) {
	if !e.deps {
		return
	}
	id := e.trace.Jobs[idx].ID
	for _, q := range e.queue.Jobs() {
		if j := e.trace.Jobs[q]; j.DependsOn == id && j.ThinkTime > 0 {
			e.push(event{time: now + j.ThinkTime, kind: evWake})
		}
	}
}

// requeue kills the running job at index idx and queues it again at the
// failure time: the allocation is released (the failed node itself stays
// out of service), partial work is discarded, and the job goes back where
// the run's policy places it, in time for the pass after the failure.
func (e *engine) requeue(idx int, now float64) error {
	if _, ok := e.core.Running.Remove(int64(idx)); !ok {
		return fmt.Errorf("sim: requeue for job index %d not running", idx)
	}
	if err := e.st.Release(e.trace.Jobs[idx].ID); err != nil {
		return err
	}
	e.state[idx] = queued
	r := &e.results[idx]
	// Counting the kill invalidates the killed attempt's completion event.
	r.Requeues++
	r.RequeuedAt = now
	r.LostSeconds += now - r.Start
	e.queue.Add(idx, e.trace.Jobs[idx].Nodes)
	return nil
}

// job describes a queued job to the pass: a job whose dependency has not
// completed, or whose think time after it has not passed, keeps its place
// in the queue while the pass serves the jobs behind it.
func (e *engine) job(idx int) (estimate float64, eligible bool) {
	return e.trace.Jobs[idx].EstimatedRuntime(), e.eligibleAt(idx) <= e.now
}

// start selects nodes for the job, applies the Eq. 7 runtime model, commits
// the allocation and schedules completion. Any failure aborts the run.
func (e *engine) start(idx int, now float64) (sched.Outcome, error) {
	j := e.trace.Jobs[idx]
	if e.state[idx] != queued {
		return 0, fmt.Errorf("sim: job %d started twice", j.ID)
	}
	pl, err := PlaceJob(&e.scratch, e.st, e.selector, e.defSel, j, e.cfg.CostMode, e.cfg.RankRemap)
	if err != nil {
		return 0, err
	}
	if err := e.st.AllocatePlacement(j.ID, j.Class, &pl.Placed); err != nil {
		return 0, err
	}
	r := &e.results[idx]
	*r = metrics.JobResult{
		ID:          int64(j.ID),
		Nodes:       j.Nodes,
		Comm:        j.Class == cluster.CommIntensive,
		Submit:      j.Submit,
		Start:       now,
		End:         now + pl.Exec,
		BaseRun:     j.Runtime,
		Exec:        pl.Exec,
		CommCost:    pl.Cost,
		RefCost:     pl.RefCost,
		CostRatio:   pl.Ratio,
		Requeues:    r.Requeues,
		RequeuedAt:  r.RequeuedAt,
		LostSeconds: r.LostSeconds,
	}
	// The scheduler plans with the walltime estimate; the completion event
	// may come earlier.
	estEnd := now + pl.Exec
	if est := j.EstimatedRuntime(); now+est > estEnd {
		estEnd = now + est
	}
	e.state[idx] = running
	e.core.Running.Add(sched.Entry{End: estEnd, Key: int64(idx), Nodes: j.Nodes})
	e.push(event{time: now + pl.Exec, kind: evComplete, job: idx, requeues: r.Requeues})
	return sched.Started, nil
}
