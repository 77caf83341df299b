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
	"container/heap"
	"fmt"

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
)

type event struct {
	time float64
	seq  int64 // tiebreaker for determinism
	kind eventKind
	job  int // index into the trace (evArrive/evComplete)
	node int // node ID (evFail/evDrain/evRepair)
	// inc is the job incarnation an evComplete was scheduled for: a kill
	// bumps the job's incarnation, so the completion of a killed attempt
	// arrives stale and is ignored.
	inc int
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

type engine struct {
	cfg      Config
	trace    workload.Trace
	st       *cluster.State
	selector core.Selector
	defSel   core.Selector

	events eventQueue
	seq    int64
	queue  sched.Queue[int] // waiting job indexes, in the policy's order
	// core is the shared FIFO + EASY pass and the running set, keyed by
	// trace index.
	core sched.Core[int]

	results []metrics.JobResult
	started []bool

	// Fault bookkeeping. inc is the per-job incarnation counter bumped on
	// every kill (stale completion events are detected against it); the
	// other slices accumulate requeue statistics merged into the job's
	// result at its final start.
	inc        []int
	requeues   []int
	requeuedAt []float64
	lostSec    []float64

	// Dependency support (SWF "preceding job"): idToIdx resolves job IDs,
	// held parks arrived jobs whose dependency has not completed, and
	// completedAt records completion times (-1 = not yet).
	idToIdx     map[cluster.JobID]int
	held        map[cluster.JobID][]int
	completedAt []float64
}

// RunContinuous replays the whole trace with its original submit times
// (the paper's "continuous runs").
func RunContinuous(cfg Config, trace workload.Trace) (*Result, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("sim: nil topology")
	}
	if err := trace.Validate(); err != nil {
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
	defSel, err := core.New(core.Default)
	if err != nil {
		return nil, err
	}
	e := &engine{
		cfg:         cfg,
		trace:       trace,
		st:          newState(cfg.Topology, cfg.Reference),
		selector:    sel,
		defSel:      defSel,
		results:     make([]metrics.JobResult, len(trace.Jobs)),
		started:     make([]bool, len(trace.Jobs)),
		idToIdx:     make(map[cluster.JobID]int, len(trace.Jobs)),
		held:        make(map[cluster.JobID][]int),
		completedAt: make([]float64, len(trace.Jobs)),
		inc:         make([]int, len(trace.Jobs)),
		requeues:    make([]int, len(trace.Jobs)),
		requeuedAt:  make([]float64, len(trace.Jobs)),
		lostSec:     make([]float64, len(trace.Jobs)),
	}
	e.core = sched.Core[int]{
		Free: e.st.FreeTotal, Job: e.job, Start: e.start,
		Backfill: !cfg.DisableBackfill,
	}
	for i, j := range trace.Jobs {
		e.idToIdx[j.ID] = i
		e.completedAt[i] = -1
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
	heap.Push(&e.events, ev)
}

func (e *engine) loop() error {
	heap.Init(&e.events)
	guard := 0
	n := len(e.trace.Jobs) + len(e.cfg.Faults)
	limit := 10 * n * (n + 2)
	for e.events.Len() > 0 {
		guard++
		if guard > limit && limit > 0 {
			return fmt.Errorf("sim: event budget exceeded (livelock?)")
		}
		ev := heap.Pop(&e.events).(event)
		now := ev.time
		switch ev.kind {
		case evArrive:
			j := e.trace.Jobs[ev.job]
			if dep := j.DependsOn; dep != 0 && !e.started[ev.job] {
				depIdx := e.idToIdx[dep]
				switch {
				case e.completedAt[depIdx] < 0:
					// Dependency still outstanding: park the job; its
					// completion re-arms this arrival.
					e.held[dep] = append(e.held[dep], ev.job)
					continue
				case e.completedAt[depIdx]+j.ThinkTime > now:
					e.push(event{time: e.completedAt[depIdx] + j.ThinkTime,
						kind: evArrive, job: ev.job})
					continue
				}
			}
			e.enqueue(ev.job)
		case evComplete:
			if ev.inc != e.inc[ev.job] {
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
			e.completedAt[ev.job] = now
			id := e.trace.Jobs[ev.job].ID
			for _, waiter := range e.held[id] {
				e.push(event{time: now + e.trace.Jobs[waiter].ThinkTime,
					kind: evArrive, job: waiter})
			}
			delete(e.held, id)
		case evFail:
			victim, err := e.st.Fail(ev.node)
			if err != nil {
				return err
			}
			if victim >= 0 {
				if err := e.requeue(e.idToIdx[victim], now); err != nil {
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
		}
		if err := e.schedule(now); err != nil {
			return err
		}
	}
	if e.queue.Len() > 0 || len(e.core.Running) > 0 || len(e.held) > 0 {
		return fmt.Errorf("sim: %d queued, %d running and %d held jobs at end of events",
			e.queue.Len(), len(e.core.Running), len(e.held))
	}
	return nil
}

// requeue kills the running job at index idx and resubmits it at the
// failure time: the allocation is released (the failed node itself stays
// out of service), partial work is discarded, and a fresh arrival event at
// now puts the job back in the queue under the run's policy.
func (e *engine) requeue(idx int, now float64) error {
	if _, ok := e.core.Running.Remove(int64(idx)); !ok {
		return fmt.Errorf("sim: requeue for job index %d not running", idx)
	}
	if err := e.st.Release(e.trace.Jobs[idx].ID); err != nil {
		return err
	}
	// Invalidate the killed attempt's completion event and let the job be
	// started again.
	e.inc[idx]++
	e.started[idx] = false
	e.requeues[idx]++
	e.requeuedAt[idx] = now
	e.lostSec[idx] += now - e.results[idx].Start
	e.push(event{time: now, kind: evArrive, job: idx})
	return nil
}

// enqueue puts an arrived job in the queue where the run's policy serves
// it: at the tail under FIFO, otherwise ahead of the first queued job it is
// Policy.less than. less is a strict total order on attributes that do not
// change while a job waits, so the queue stays sorted under it and this is
// where a stable sort of the queue plus the arrival would put the job.
func (e *engine) enqueue(idx int) {
	jobs, p := e.trace.Jobs, e.cfg.Policy
	if p == FIFO {
		e.queue.Push(idx, jobs[idx].Nodes)
		return
	}
	e.queue.Insert(idx, jobs[idx].Nodes, func(q int) bool { return p.less(jobs, idx, q) })
}

// schedule hands the queue to the shared pass: the head first, then EASY
// backfilling behind its reservation.
func (e *engine) schedule(now float64) error {
	starved, err := e.core.Pass(&e.queue, now)
	if err == nil && starved && len(e.cfg.Faults) == 0 {
		// Only under faults can the head be transiently unsatisfiable (enough
		// nodes down that draining every running job would not free its
		// request; a repair restores capacity). Without them it never runs.
		head := e.trace.Jobs[e.queue.Jobs()[0]]
		err = fmt.Errorf("sim: job %d (%d nodes) can never run", head.ID, head.Nodes)
	}
	return err
}

// job describes a queued job to the pass. Every queued job is eligible:
// jobs held on a dependency are parked outside the queue.
func (e *engine) job(idx int) (estimate float64, eligible bool) {
	return e.trace.Jobs[idx].EstimatedRuntime(), true
}

// start selects nodes for the job, applies the Eq. 7 runtime model, commits
// the allocation and schedules completion. Any failure aborts the run.
func (e *engine) start(idx int, now float64) (sched.Outcome, error) {
	j := e.trace.Jobs[idx]
	if e.started[idx] {
		return 0, fmt.Errorf("sim: job %d started twice", j.ID)
	}
	pl, err := PlaceJobMapped(e.st, e.selector, e.defSel, j, e.cfg.CostMode, e.cfg.RankRemap)
	if err != nil {
		return 0, err
	}
	if err := e.st.AllocatePlacement(j.ID, j.Class, &pl.Placed); err != nil {
		return 0, err
	}
	e.results[idx] = metrics.JobResult{
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
		Requeues:    e.requeues[idx],
		RequeuedAt:  e.requeuedAt[idx],
		LostSeconds: e.lostSec[idx],
	}
	// The scheduler plans with the walltime estimate; the completion event
	// may come earlier.
	estEnd := now + pl.Exec
	if est := j.EstimatedRuntime(); now+est > estEnd {
		estEnd = now + est
	}
	e.started[idx] = true
	e.core.Running.Add(sched.Entry{End: estEnd, Key: int64(idx), Nodes: j.Nodes})
	e.push(event{time: now + pl.Exec, kind: evComplete, job: idx, inc: e.inc[idx]})
	return sched.Started, nil
}
