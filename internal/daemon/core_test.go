package daemon

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hostlist"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/verify"
	"repro/internal/workload"
)

// refusingSelector fails one job's selection with an error that is not a
// capacity race, and defers to the real selector otherwise.
type refusingSelector struct {
	core.Selector
	refuse cluster.JobID
}

func (s refusingSelector) Select(st *cluster.State, req core.Request) ([]int, error) {
	if req.Job == s.refuse {
		return nil, errors.New("stub selector refuses")
	}
	return s.Selector.Select(st, req)
}

// A job whose start fails behind the EASY head is dropped exactly like one
// that fails at the front: cancelled with the reason recorded, and — since
// it never ran — without consuming the head's extra nodes. 8 nodes: job 1
// holds 6 until t=100, job 2 (5 nodes) is the head with 3 extra nodes; jobs
// 3, 4 (2 nodes each) and 5 (1 node), all outliving the shadow, arrive in one
// pass with 2 nodes free. Job 3's selection fails; job 4 must still fit the
// 3 extra nodes and take the last free ones, leaving job 5 queued. (Charging
// job 3 to the pool would leave 1 extra: job 4 waits and job 5 runs.)
func TestFailedBackfillStartIsDroppedWithReason(t *testing.T) {
	d := newClockedDaemon(t, newFakeClock())
	d.call(func() Response {
		d.selector = refusingSelector{Selector: d.selector, refuse: 3}
		return Response{Ok: true}
	})
	for _, spec := range []SubmitSpec{{Nodes: 6, Runtime: 100}, {Nodes: 5, Runtime: 50}} {
		if resp := d.SubmitBatch([]SubmitSpec{spec}); !resp.Ok || resp.Batch[0].Error != "" {
			t.Fatalf("setup submit: %+v", resp)
		}
	}
	if resp := d.SubmitBatch([]SubmitSpec{
		{Nodes: 2, Runtime: 500, Name: "refused"}, {Nodes: 2, Runtime: 500}, {Nodes: 1, Runtime: 500},
	}); !resp.Ok {
		t.Fatal(resp.Error)
	}
	refused := d.Status(3).Job
	if refused.State != "cancelled" || !strings.Contains(refused.Name, "(failed: ") ||
		!strings.Contains(refused.Name, "stub selector refuses") {
		t.Errorf("refused job: state %s name %q, want cancelled with the reason", refused.State, refused.Name)
	}
	for id, want := range map[int64]string{2: "queued", 4: "running", 5: "queued"} {
		if st := d.Status(id).Job.State; st != want {
			t.Errorf("job %d is %s, want %s: the never-started job 3 was charged to the head's extra nodes", id, st, want)
		}
	}
	checkInvariants(t, d)
}

// grid is the granularity the differential traces are rounded to: sums of
// multiples of 1/512 s are exact both as float64 seconds and as the
// time.Duration nanoseconds a Config.Clock has to speak.
const grid = 1.0 / 512

// TestDaemonScheduleEqualsSim is PAPER.md §2's "mirrors SLURM's
// queue/backfill behaviour" claim in executable form for the serving path:
// a verify-generated trace fed to the daemon, under a fake clock stepped to
// each of the simulator's event times, must start every job at the
// simulator's start time on the simulator's nodes.
//
// Both front ends run the one internal/sched pass over a queue in job-ID
// order, so this holds wherever their remaining semantics coincide
// (DESIGN.md "Remaining semantic drift"), which the trace family
// guarantees:
//   - compute-only jobs with exact estimates: the simulator's planned end
//     max(end, start+estimate) equals the daemon's end;
//   - FIFO policy and no think times: the daemon has neither;
//   - times on the 1/512 s grid, and no completion sharing an instant with
//     any other event (the simulator takes events one at a time with a
//     pass after each, the daemon completes everything due and then runs
//     one pass) — seeds where that happens are skipped and counted.
//
// Each seed runs without dependencies and with verify's dependency family,
// where a dependant waits in the queue, passed over, until its dependency
// completes.
//
// The simulator's node lists are not in its Result; they are recovered by
// replaying its start/end times through sim.PlaceJob on a fresh state.
func TestDaemonScheduleEqualsSim(t *testing.T) {
	compared, runs, withDeps := 0, 0, 0
	const seeds = 24
	for seed := int64(1); seed <= seeds; seed++ {
		for _, depFraction := range []float64{0, 0.3} {
			runs++
			spec := verify.DefaultSpec(seed)
			spec.CommFraction, spec.DepFraction, spec.BadEstFraction, spec.Faults = 0, depFraction, 0, 0
			topo, trace, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			deps := 0
			for i := range trace.Jobs {
				j := &trace.Jobs[i]
				j.Submit = math.Round(j.Submit/grid) * grid
				j.Runtime = math.Round(j.Runtime/grid) * grid
				j.ThinkTime = 0
				if j.DependsOn != 0 {
					deps++
				}
			}
			res, err := sim.RunContinuous(sim.Config{Topology: topo, Algorithm: core.Adaptive}, trace)
			if err != nil {
				t.Fatalf("%v: %v", spec, err)
			}

			events := simEvents(trace, res)
			collision := false
			for k := 1; k < len(events); k++ {
				if events[k].at == events[k-1].at && !(events[k].arrival && events[k-1].arrival) {
					collision = true
				}
			}
			if collision {
				t.Logf("%v: skipped, a completion shares an instant with another event", spec)
				continue
			}
			compared++
			if deps > 0 {
				withDeps++
			}

			clk := newFakeClock()
			d, err := New(Config{Topology: topo, Algorithm: core.Adaptive, TimeScale: 1, Clock: clk.Now})
			if err != nil {
				t.Fatal(err)
			}
			replayOnClock(t, d, clk, trace, events)
			if err := auditHistory(t, d, nil, nil); err != nil {
				t.Errorf("%v: %v", spec, err)
			}
			nodes := replayNodes(t, topo.NodeName, cluster.New(topo), trace, res)
			for i, r := range res.Jobs {
				got := d.Status(r.ID).Job
				if got.State != "completed" || got.Start != r.Start || got.End != r.End || got.NodeList != nodes[i] {
					t.Errorf("%v: job %d: daemon %s [%v, %v] on %s, simulator [%v, %v] on %s",
						spec, r.ID, got.State, got.Start, got.End, got.NodeList, r.Start, r.End, nodes[i])
				}
			}
			d.Close()
		}
	}
	if compared < runs*3/4 || withDeps < seeds/2 {
		t.Fatalf("only %d of %d runs were free of event collisions, %d of them with dependencies", compared, runs, withDeps)
	}
}

// simEvent is an instant at which the simulator's run changed: job (a
// trace index) arrived, or completed.
type simEvent struct {
	at      float64
	arrival bool
	job     int
}

// simEvents lists a simulator run's arrivals in trace order and its
// completions, in time order.
func simEvents(trace workload.Trace, res *sim.Result) []simEvent {
	var events []simEvent
	for i, r := range res.Jobs {
		events = append(events, simEvent{trace.Jobs[i].Submit, true, i}, simEvent{r.End, false, i})
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].at < events[b].at })
	return events
}

// replayOnClock drives d through events on the fake clock: it submits each
// arriving job at its instant and brings d to each completion instant.
// Where d's schedule parts from the simulator's, jobs are still running
// after the last event; it then steps to each of their ends until none is.
func replayOnClock(t *testing.T, d *Daemon, clk *fakeClock, trace workload.Trace, events []simEvent) {
	t.Helper()
	var elapsed time.Duration
	advance := func(at time.Duration) {
		clk.Advance(at - elapsed)
		elapsed = at
		d.Info() // any op brings the daemon to the clock's time
	}
	for _, ev := range events {
		at := time.Duration(ev.at * float64(time.Second))
		if !ev.arrival {
			advance(at)
			continue
		}
		clk.Advance(at - elapsed)
		elapsed = at
		j := trace.Jobs[ev.job]
		req := Request{Nodes: j.Nodes, Runtime: j.Runtime, Class: "compute", After: int64(j.DependsOn)}
		if p, ok := j.Mix.PrimaryPattern(); ok && j.Class == cluster.CommIntensive {
			req.Class, req.Pattern, req.CommShare = "comm", p.String(), j.Mix.CommFrac()
		}
		if resp := d.Submit(req); !resp.Ok || resp.ID != int64(j.ID) {
			t.Fatalf("submit of job %d: %+v", j.ID, resp)
		}
	}
	for steps := 0; ; steps++ {
		run := d.Running().Jobs
		if len(run) == 0 {
			return
		}
		if steps > len(trace.Jobs) {
			t.Fatalf("%d jobs still running after %d steps", len(run), steps)
		}
		next := run[0].End
		for _, ji := range run[1:] {
			next = min(next, ji.End)
		}
		advance(max(time.Duration(math.Ceil(next*float64(time.Second))), elapsed+1))
	}
}

// cancel is a job's cancel as a test sent it: the virtual time, and
// whether the job was running then.
type cancel struct {
	at      float64
	running bool
}

// auditHistory runs the simulator's auditor, sim.ValidateResultConfig,
// over the daemon's history: every slot becomes a metrics.JobResult and a
// workload.Job with the dependency it was submitted with. The daemon plans
// with a job's exact end and backfills with its runtime as the estimate
// (DESIGN.md's estimate drift); the job's Estimate is the smaller of its
// runtime and its exec, which gives the auditor the daemon's planned end and
// a backfill estimate no longer than the daemon's, so it refuses no start
// the daemon's pass could make. ftrace lists the node faults the daemon was
// sent, at their virtual times. Every job must have completed or be in
// cancels: a job cancelled while running ended at its cancel, and one
// cancelled while queued never ran and is left out, its dependants waiting
// on nothing. Any other job that is not completed, a start that failed
// included, is an error.
//
// Left out, a job was still queued at the instants from its submission to
// its cancel, and a cancelled job whose exec exceeds its runtime held nodes
// to a planned end the auditor is not given: the result cannot rebuild the
// passes in those spans. Each span goes to the auditor as the drain of a
// node past the machine, and the auditor skips the instants a drain is in
// effect (TestValidateSkipsDrainPastMachine pins that in internal/sim).
func auditHistory(t *testing.T, d *Daemon, ftrace faults.Trace, cancels map[int64]cancel) error {
	t.Helper()
	topo := d.cfg.Topology
	res := &sim.Result{Algorithm: d.cfg.Algorithm, MachineNodes: topo.NumNodes()}
	trace := workload.Trace{MachineNodes: topo.NumNodes()}
	ftrace = slices.Clone(ftrace)
	phantom := topo.NumNodes()
	unknowable := func(from, to float64) {
		ftrace = append(ftrace, faults.Event{Time: from, Kind: faults.Drain, Node: phantom},
			faults.Event{Time: math.Nextafter(to, math.Inf(1)), Kind: faults.Repair, Node: phantom})
		phantom++
	}
	left := map[int64]bool{}
	resp := d.call(func() Response {
		for id := int64(1); id < d.nextID; id++ {
			h := d.hist.get(id)
			var comm [1]collective.Component
			j := h.asJob(id, &comm)
			j.Estimate, j.DependsOn = min(h.runtime, h.exec), cluster.JobID(h.after)
			if left[h.after] {
				j.DependsOn = 0
			}
			r := metrics.JobResult{
				ID: id, Nodes: int(h.nodes), Comm: h.class == cluster.CommIntensive,
				Submit: h.submit, Start: h.start, End: h.end, BaseRun: h.runtime,
				Exec: h.exec, CommCost: h.cost, RefCost: h.refCost, CostRatio: h.ratio,
				Requeues: int(h.requeues), RequeuedAt: h.requeuedAt, LostSeconds: h.lostSec,
			}
			c, sent := cancels[id]
			switch {
			case h.state == stateCompleted:
			case h.state != stateCancelled || !sent:
				return Response{Error: fmt.Sprintf("job %d is %s", id, h.state)}
			case c.running && c.at > h.start:
				// A compute job of the length it ran.
				if h.exec > h.runtime {
					unknowable(h.start, c.at)
				}
				j.Class, j.Mix, j.Runtime = cluster.ComputeIntensive, collective.Mix{}, c.at-h.start
				r.Comm, r.End, r.Exec, r.BaseRun = false, c.at, j.Runtime, j.Runtime
				r.CommCost, r.RefCost, r.CostRatio = 0, 0, 1
			default:
				unknowable(h.submit, c.at)
				left[id] = true
				continue
			}
			trace.Jobs = append(trace.Jobs, j)
			res.Jobs = append(res.Jobs, r)
		}
		return Response{Ok: true}
	})
	if !resp.Ok {
		return errors.New(resp.Error)
	}
	slices.SortStableFunc(ftrace, func(a, b faults.Event) int { return cmp.Compare(a.Time, b.Time) })
	return sim.ValidateResultConfig(res, trace, sim.Config{
		Topology: topo, Algorithm: d.cfg.Algorithm, DisableBackfill: d.cfg.DisableBackfill,
		CostMode: d.cfg.CostMode, Faults: ftrace,
	})
}

// A daemon history with a dependency and a failure requeue passes the
// simulator's auditor, with and without backfilling: the auditor reads
// queue order as job-ID order, as the daemon keeps it, whenever a job was
// submitted or requeued. On 8 nodes jobs 1 and 2 (4 nodes each) start at 0;
// job 3 (4 nodes) is submitted at 5 with job 4 depending on it. A failure at
// 10 kills job 1, which goes back ahead of job 3 and starts when job 2
// ends at 1000; job 3 follows at 1100 and job 4 at 1150.
func TestDaemonHistoryWithRequeueAndDependencyPassesSimAudit(t *testing.T) {
	for _, noBackfill := range []bool{false, true} {
		clk := newFakeClock()
		d, err := New(Config{Topology: topology.PaperExample(), Algorithm: core.Adaptive,
			DisableBackfill: noBackfill, TimeScale: 1, Clock: clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		at := func(v float64) {
			clk.Advance(time.Duration(v*float64(time.Second)) - clk.Now().Sub(d.wallBase))
			d.Info()
		}
		d.Submit(Request{Nodes: 4, Runtime: 100})
		d.Submit(Request{Nodes: 4, Runtime: 1000})
		at(5)
		d.Submit(Request{Nodes: 4, Runtime: 50})
		d.Submit(Request{Nodes: 1, Runtime: 10, After: 3})
		at(10)
		var node int
		d.call(func() Response {
			node = d.st.Allocation(1).Nodes()[0]
			return Response{Ok: true}
		})
		ftrace := faults.Trace{{Time: 10, Kind: faults.Fail, Node: node}}
		if resp := d.Fail(d.cfg.Topology.NodeName(node)); !resp.Ok || resp.ID != 1 {
			t.Fatalf("failing node %d: %+v, want job 1 killed", node, resp)
		}
		for _, v := range []float64{1000, 1100, 1150, 1160} {
			at(v)
		}
		for id, want := range map[int64]float64{1: 1000, 2: 0, 3: 1100, 4: 1150} {
			if got := d.Status(id).Job; got.Start != want {
				t.Errorf("backfill off %v: job %d started at %v, want %v", noBackfill, id, got.Start, want)
			}
		}
		if err := auditHistory(t, d, ftrace, nil); err != nil {
			t.Errorf("backfill off %v: %v", noBackfill, err)
		}
		d.Close()
	}
}

// A 1,000-job Theta trace with communication-intensive jobs, replayed into
// the daemon under Default on the fake clock, leaves a history the
// simulator's auditor accepts: Eq. 7 bookkeeping, capacity, and the
// legality of every backfilled start. Under Default a job's exec is its
// runtime, the estimate the pass plans with.
func TestDaemonHistoryPassesSimAudit(t *testing.T) {
	topo := topology.Theta()
	trace := workload.Theta.Synthesize(1000, 1).MustTag(0.5, collective.SinglePattern(collective.RHVD, 0.6), 8)
	res, err := sim.RunContinuous(sim.Config{Topology: topo, Algorithm: core.Default}, trace)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	d, err := New(Config{Topology: topo, Algorithm: core.Default, TimeScale: 1, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	replayOnClock(t, d, clk, trace, simEvents(trace, res))
	comm := 0
	for _, j := range trace.Jobs {
		if j.Class == cluster.CommIntensive {
			comm++
		}
	}
	if comm == 0 {
		t.Fatal("trace has no communication-intensive job")
	}
	if err := auditHistory(t, d, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// replayNodes recovers the node list of every job of a simulator run, in
// the daemon's wire form: at each instant completions release first, then
// the instant's starts are placed in queue (= trace) order, as one pass of
// the engine does.
func replayNodes(t *testing.T, name func(int) string, st *cluster.State, trace workload.Trace, res *sim.Result) []string {
	t.Helper()
	type step struct {
		at    float64
		start bool
		job   int
	}
	var steps []step
	for i, r := range res.Jobs {
		steps = append(steps, step{r.Start, true, i}, step{r.End, false, i})
	}
	sort.Slice(steps, func(a, b int) bool {
		x, y := steps[a], steps[b]
		if x.at != y.at {
			return x.at < y.at
		}
		if x.start != y.start {
			return y.start
		}
		return x.job < y.job
	})
	sel, def := core.MustNew(core.Adaptive), core.MustNew(core.Default)
	out := make([]string, len(trace.Jobs))
	for _, s := range steps {
		j := trace.Jobs[s.job]
		if !s.start {
			if err := st.Release(j.ID); err != nil {
				t.Fatal(err)
			}
			continue
		}
		pl, err := sim.PlaceJob(new(core.Scratch), st, sel, def, j, 0, false)
		nodes := pl.Placed.Nodes()
		if err == nil {
			err = st.Allocate(j.ID, j.Class, nodes)
		}
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(nodes))
		for k, id := range nodes {
			names[k] = name(id)
		}
		out[s.job] = hostlist.Compress(names)
	}
	return out
}
