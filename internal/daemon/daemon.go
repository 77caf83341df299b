// Package daemon is an online, slurmctld-style scheduling service built on
// the same substrates as the offline simulator: clients submit jobs over a
// JSON-lines TCP protocol (sbatch/squeue/sinfo/scancel equivalents), the
// daemon places them with one of the paper's allocation algorithms, and
// emulated jobs occupy their nodes for the Eq. 7-modified runtime. A
// configurable time scale compresses virtual time (the paper's frontend
// emulation runs "for the same duration as their execution times"; a
// time scale of 1000 turns an hour-long job into 3.6 wall seconds).
package daemon

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Config parameterises the daemon.
type Config struct {
	// Topology is the managed machine (required).
	Topology *topology.Topology
	// Algorithm is the node-selection policy (default: adaptive).
	Algorithm core.Algorithm
	// TimeScale is virtual seconds per wall-clock second (default 1; use
	// large values to emulate long traces quickly).
	TimeScale float64
	// DisableBackfill switches to strict FIFO.
	DisableBackfill bool
	// CostMode selects the communication cost function.
	CostMode costmodel.Mode
	// Clock overrides the wall-clock source (tests inject deterministic
	// clocks for the batching differential proofs); nil means time.Now.
	Clock func() time.Time
}

type jobState uint8

const (
	stateNone jobState = iota // a slot no job holds
	stateQueued
	stateRunning
	stateCompleted
	stateCancelled
)

func (s jobState) String() string {
	switch s {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateCompleted:
		return "completed"
	case stateCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// asJob is job id as placement sees it, built from its slot h at each start
// without allocating: a comm job's one Mix component is written to comm,
// which the caller owns and placement reads only during the call. The Mix
// has no name; nothing on the placement path reads one.
func (h *histRecord) asJob(id int64, comm *[1]collective.Component) workload.Job {
	j := workload.Job{
		ID:      cluster.JobID(id),
		Submit:  h.submit,
		Runtime: h.runtime,
		Nodes:   int(h.nodes),
		Class:   h.class,
		Mix:     collective.Mix{ComputeFrac: 1},
	}
	if h.class == cluster.CommIntensive {
		comm[0] = collective.Component{Pattern: h.pattern, Frac: h.share}
		j.Mix = collective.Mix{ComputeFrac: 1 - h.share, Comms: comm[:]}
	}
	return j
}

// Daemon is the scheduling service. All state is owned by the engine
// goroutine; external entry points communicate with it over a channel.
type Daemon struct {
	cfg      Config
	st       *cluster.State
	selector core.Selector
	defSel   core.Selector // nil under Default (sim.ReferenceSelector)
	scratch  core.Scratch  // every placement's working set and candidates

	cmds chan func()
	quit chan struct{}

	// clock is the wall-clock source (time.Now in production; tests inject
	// a deterministic clock for the batching differential proofs). Set
	// before the engine starts and never mutated concurrently.
	clock    func() time.Time
	wallBase time.Time
	timer    *time.Timer

	nextID int64
	hist   history // every admitted job's slot, by ID: the job table
	queue  sched.Queue[int64]
	// core is the shared FIFO + EASY pass and the running set, keyed by
	// job ID.
	core sched.Core[int64]
	// completed sums the results of every completed job: stats reads it in
	// O(1), and no result is kept.
	completed metrics.Accumulator
	lat       latRing

	// ids and text are the node-list rendering's buffers, reused row after
	// row.
	ids  []int
	text []byte
	// comm is the Mix component of the comm job being placed (asJob).
	comm [1]collective.Component

	// queued and running are the two listings' memos; runIDs is the
	// running set's IDs in order (runningOrdered), reused.
	queued, running memo
	runIDs          []int64
}

// memo is what one listing keeps between calls: the last listing, which
// the next one copies its unchanged rows from, and the next one's index
// and the rows it encodes.
type memo struct {
	listed listing
	spare  []listRow
	fresh  []byte
}

// listing is a rendered listing: its frame, which nothing writes once
// it is handed out, and where each row lies in it.
type listing struct {
	frame []byte
	rows  []listRow
}

// listRow is one row of a listing: the job and requeue count it shows, and
// its bytes, frame[off:off+n]. While a listing is built, off is -1 for a row
// encoded into its fresh bytes.
type listRow struct {
	id       int64
	off, n   int
	requeues int32
}

// pendingOp is one in-flight protocol operation. The server's connection
// pipelines ring these through reader → engine → writer; the direct API
// methods wrap each call in a one-op batch.
type pendingOp struct {
	req  Request
	resp Response
	recv time.Time // wall receipt time, the submit-ack latency base
	// frame is the response already rendered (a queue listing): the
	// writer sends it as it is, and resp only says Ok.
	frame []byte
	// pass marks an op whose response was prefilled before the engine
	// (busy backpressure, malformed frame): the engine must not run it.
	pass bool
}

// New builds a daemon and starts its engine goroutine. Call Close to stop
// it.
func New(cfg Config) (*Daemon, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("daemon: nil topology")
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if cfg.TimeScale < 0 {
		return nil, fmt.Errorf("daemon: negative time scale %v", cfg.TimeScale)
	}
	// The zero Algorithm value is core.Default, i.e. stock SLURM behaviour.
	selector, err := core.New(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	clk := cfg.Clock
	if clk == nil {
		clk = time.Now
	}
	d := &Daemon{
		cfg:      cfg,
		st:       cluster.New(cfg.Topology),
		selector: selector,
		defSel:   sim.ReferenceSelector(cfg.Algorithm),
		cmds:     make(chan func()),
		quit:     make(chan struct{}),
		clock:    clk,
		wallBase: clk(),
		timer:    time.NewTimer(time.Hour),
		nextID:   1,
	}
	d.core = sched.Core[int64]{
		Free: d.st.FreeTotal, Job: d.job, Start: d.startJob,
		Backfill: !cfg.DisableBackfill,
	}
	if !d.timer.Stop() {
		<-d.timer.C
	}
	go d.engine()
	return d, nil
}

// Close stops the engine goroutine. Pending jobs are abandoned.
func (d *Daemon) Close() {
	select {
	case <-d.quit:
	default:
		close(d.quit)
	}
}

// engine is the single goroutine owning all scheduler state.
func (d *Daemon) engine() {
	for {
		select {
		case <-d.quit:
			d.timer.Stop()
			return
		case f := <-d.cmds:
			f()
		case <-d.timer.C:
			d.tick(d.now())
		}
	}
}

// call runs f on the engine goroutine and returns its response. Once the
// engine has taken f it runs it to the end, quit or not, and f may be
// writing into the caller's memory (execBatch's ops), so call waits for it.
func (d *Daemon) call(f func() Response) Response {
	ch := make(chan Response, 1)
	select {
	case d.cmds <- func() { ch <- f() }:
	case <-d.quit:
		return Response{Error: "daemon: shut down"}
	}
	return <-ch
}

// now reads the clock as virtual time. An engine wakeup reads it once and
// threads that v through everything it does, so one pass sees one "now".
func (d *Daemon) now() float64 {
	return d.clock().Sub(d.wallBase).Seconds() * d.cfg.TimeScale
}

// tick brings the daemon to virtual time v: due jobs complete, then one
// scheduling pass runs and the wake-up timer is re-armed.
func (d *Daemon) tick(v float64) {
	d.advance(v)
	d.schedule(v)
}

// advance completes every running job whose virtual end time has passed,
// in (end, job ID) order.
func (d *Daemon) advance(v float64) {
	for len(d.core.Running) > 0 && d.core.Running[0].End <= v {
		next := d.core.Running[0]
		d.core.Running.Remove(next.Key)
		d.complete(next.Key)
	}
}

// complete finishes running job id: its slot says so.
func (d *Daemon) complete(id int64) {
	h := d.hist.get(id)
	_ = d.st.Release(cluster.JobID(id))
	h.state = stateCompleted
	d.completed.Add(metrics.JobResult{
		ID:          id,
		Nodes:       int(h.nodes),
		Comm:        h.class == cluster.CommIntensive,
		Submit:      h.submit,
		Start:       h.start,
		End:         h.end,
		BaseRun:     h.runtime,
		Exec:        h.exec,
		CommCost:    h.cost,
		RefCost:     h.refCost,
		CostRatio:   h.ratio,
		Requeues:    int(h.requeues),
		RequeuedAt:  h.requeuedAt,
		LostSeconds: h.lostSec,
	})
}

// schedule runs one scheduling pass at virtual time v, then sets the
// wake-up timer to the earliest running-job completion.
func (d *Daemon) schedule(v float64) {
	// startJob reports every failure as an outcome, so the pass cannot fail;
	// a head that no completion can satisfy (e.g. a drained leaf) is already
	// indefinitely delayed, and the pass lets everything that fits through.
	_, _ = d.core.Pass(&d.queue, v)
	d.timer.Stop()
	select {
	case <-d.timer.C:
	default:
	}
	if len(d.core.Running) == 0 {
		return
	}
	// Clamped before the conversion: a wait past what a Duration holds (a job
	// submitted with a runtime of centuries) would come out negative and fire
	// at once, every time. An early wakeup finds nothing due and re-arms.
	wall := min(max((d.core.Running[0].End-v)/d.cfg.TimeScale, 0), 1e9)
	d.timer.Reset(time.Duration(wall * float64(time.Second)))
}

// job describes a queued job to the pass. A job is ineligible while its
// dependency (if any) is unfinished: it stays pending while others pass
// (SLURM's reason Dependency). Dependants of cancelled jobs become
// eligible, as with SLURM's afterany.
func (d *Daemon) job(id int64) (estimate float64, eligible bool) {
	h := d.hist.get(id)
	eligible = true
	if h.after != 0 {
		if dep := d.hist.get(h.after); dep != nil {
			eligible = dep.state == stateCompleted || dep.state == stateCancelled
		}
	}
	return h.runtime, eligible
}

// startJob places and starts a job at virtual time v. A node going down
// between the pass's capacity check and the allocation (fail/drain serviced
// in the same pass) leaves the job valid: a listed node now down, or runs
// gone stale unlisted, is an ErrNodeUnavailable, and the job retries.
// Deterministic selectors otherwise only fail on capacity, which the pass
// just checked; anything else cancels the job with the reason recorded.
func (d *Daemon) startJob(id int64, v float64) (sched.Outcome, error) {
	h := d.hist.get(id)
	pl, err := sim.PlaceJobWith(&d.scratch, d.st, d.selector, d.defSel, h.asJob(id, &d.comm), d.cfg.CostMode, false)
	if err == nil {
		err = d.st.AllocatePlacement(cluster.JobID(id), h.class, &pl.Placed)
	}
	if errors.Is(err, cluster.ErrNodeUnavailable) {
		return sched.Retry, nil
	}
	if err != nil {
		h.state = stateCancelled
		d.hist.setName(h, d.hist.name(h)+" (failed: "+err.Error()+")")
		return sched.Dropped, nil
	}
	// The slot keeps its own copy of the masks: running and finished rows
	// render from it alike, and the allocation is the cluster's alone.
	h.masks = d.hist.masks.add(d.st.Allocation(cluster.JobID(id)).Masks())
	h.exec, h.cost, h.ratio, h.refCost = pl.Exec, pl.Cost, pl.Ratio, pl.RefCost
	h.state = stateRunning
	h.start = v
	h.end = v + pl.Exec
	d.core.Running.Add(sched.Entry{End: h.end, Key: id, Nodes: int(h.nodes)})
	// Queue-wait sample: virtual seconds from (first) submission to start.
	d.lat.recordWait(v - h.submit)
	return sched.Started, nil
}

// info converts job id's slot to its wire form.
func (d *Daemon) info(id int64, h *histRecord) JobInfo {
	ji := JobInfo{
		ID:       id,
		Name:     d.hist.name(h),
		Nodes:    int(h.nodes),
		Class:    h.class.String(),
		State:    h.state.String(),
		After:    h.after,
		Submit:   h.submit,
		BaseRun:  h.runtime,
		Requeues: int(h.requeues),
	}
	if h.class == cluster.CommIntensive {
		ji.Pattern = h.pattern.String()
	}
	if h.state == stateRunning || h.state == stateCompleted {
		ji.Start = h.start
		ji.End = h.end
		ji.Exec = h.exec
		ji.CostRatio = h.ratio
		ji.CommCost = h.cost
		d.ids = cluster.AppendNodes(d.cfg.Topology, d.ids[:0], d.hist.masks.get(h.masks))
		d.text = d.cfg.Topology.NameTable().Append(d.text[:0], d.ids)
		ji.NodeList = string(d.text)
	}
	return ji
}

// listFrame renders the listing of jobs ids into a frame (engine
// goroutine) and keeps it in m for the next listing to copy from. The frame
// is its one allocation, made to size: the writer may still be sending it
// while the next listing reads it, so nothing writes it again.
func (d *Daemon) listFrame(m *memo, ids []int64) ([]byte, error) {
	rows, fresh, size, err := d.walkRows(m.listed.rows, m.spare[:0], ids, m.fresh[:0])
	m.fresh = fresh
	if err != nil {
		m.spare = rows
		return nil, err
	}
	frame := m.listed.render(make([]byte, 0, size), rows, fresh)
	m.spare, m.listed = m.listed.rows, listing{frame, rows}
	return frame, nil
}

// walkRows is a listing's first pass: it appends the row of each job of ids
// to rows and returns the frame's size. A row does not change while its job
// stays queued, or running, and a requeue bumps its count, so a row of the
// last listing, last, with the same job and requeue count is copied; the
// others are encoded into fresh. The running listing's IDs ascend, and so do
// the queue's (submissions push at the tail, a requeue goes ahead of the
// first larger ID), so one walk finds every such row. In any other order (a
// restored snapshot's queue) a row is only missed, and encoded again.
//
//caws:noalloc
func (d *Daemon) walkRows(last, rows []listRow, ids []int64, fresh []byte) ([]listRow, []byte, int, error) {
	if len(ids) == 0 {
		return rows, fresh, len(emptyListing), nil
	}
	size, k := len(listingHead)+len(ids)-1+len(listingTail), 0
	for _, id := range ids {
		for k < len(last) && last[k].id < id {
			k++
		}
		h := d.hist.get(id)
		row := listRow{id: id, off: -1, requeues: h.requeues}
		if k < len(last) && last[k].id == id && last[k].requeues == h.requeues {
			row.off, row.n = last[k].off, last[k].n
			k++
		} else {
			ji := d.info(id, h)
			e := encoder{b: fresh}
			if e.job(&ji); e.err != nil {
				return rows, fresh, 0, e.err
			}
			row.n = len(e.b) - len(fresh)
			fresh = e.b
		}
		size += row.n
		rows = append(rows, row)
	}
	return rows, fresh, size, nil
}

// The bytes of a listing's frame around its rows, and of an empty one.
const (
	listingHead  = `{"ok":true,"jobs":[`
	listingTail  = "]}\n"
	emptyListing = `{"ok":true}` + "\n"
)

// render is a listing's second pass: it appends to frame the listing of
// rows, each copied from l's frame or, if walkRows encoded it, from fresh,
// where they lie in order, and points each row at its bytes in frame.
//
//caws:noalloc
func (l *listing) render(frame []byte, rows []listRow, fresh []byte) []byte {
	if len(rows) == 0 {
		return append(frame, emptyListing...)
	}
	frame = append(frame, listingHead...)
	for i := range rows {
		r := &rows[i]
		if i > 0 {
			frame = append(frame, ',')
		}
		var src []byte
		if r.off < 0 {
			src, fresh = fresh[:r.n], fresh[r.n:]
		} else {
			src = l.frame[r.off : r.off+r.n]
		}
		r.off = len(frame)
		frame = append(frame, src...)
	}
	return append(frame, listingTail...)
}

// execBatch runs a drained batch of protocol ops in a single engine
// wakeup. Runs of consecutive submit/submit_batch ops are admitted
// together — one advance, every job validated and enqueued in batch (=
// submit-ID) order, then ONE scheduling pass — which is the daemon's
// throughput lever: a pipelined burst of N submits costs one queue scan
// instead of N. Every other op keeps its exact one-at-a-time semantics,
// so a sequential client observes byte-identical responses to the
// pre-batching engine (pinned by TestSequentialBatchIdentity). Responses
// are filled into the ops in place; ops with pass set are skipped.
func (d *Daemon) execBatch(ops []*pendingOp) {
	if len(ops) == 0 {
		return
	}
	resp := d.call(func() Response {
		v := d.now()
		for i := 0; i < len(ops); {
			if ops[i].pass {
				i++
				continue
			}
			if !isSubmitOp(ops[i].req.Op) {
				ops[i].resp = d.dispatchLocked(ops[i], v)
				i++
				continue
			}
			j := i
			for j < len(ops) && !ops[j].pass && isSubmitOp(ops[j].req.Op) {
				j++
			}
			d.advance(v)
			for k := i; k < j; k++ {
				d.admitLocked(ops[k], v)
			}
			d.schedule(v)
			for k := i; k < j; k++ {
				d.ackLocked(ops[k])
			}
			i = j
		}
		return Response{Ok: true}
	})
	if !resp.Ok {
		// Engine shut down mid-batch: fail every op still unfilled.
		for _, op := range ops {
			if !op.pass && !op.resp.Ok && op.resp.Error == "" {
				op.resp = resp
			}
		}
	}
}

func isSubmitOp(op string) bool { return op == "submit" || op == "submit_batch" }

// exec1 runs one op as a singleton batch — the direct API path. A
// rendered response is read back as a client reads it.
func (d *Daemon) exec1(req Request) Response {
	op := pendingOp{req: req, recv: d.clock()}
	ops := [1]*pendingOp{&op}
	d.execBatch(ops[:])
	if op.frame != nil {
		if err := decodeResponse(op.frame, &op.resp); err != nil {
			return Response{Error: err.Error()}
		}
	}
	return op.resp
}

// admitLocked validates and enqueues a submit or submit_batch op at
// virtual time v (engine goroutine, advance already done; the caller runs
// the scheduling pass).
func (d *Daemon) admitLocked(op *pendingOp, v float64) {
	switch op.req.Op {
	case "submit":
		spec := op.req.Spec()
		op.resp = d.submitLocked(&spec, v)
	case "submit_batch":
		if len(op.req.Batch) == 0 {
			op.resp = Response{Error: "submit_batch: empty batch"}
			return
		}
		results := make([]BatchResult, len(op.req.Batch))
		for i := range op.req.Batch {
			r := d.submitLocked(&op.req.Batch[i], v)
			if r.Ok {
				results[i] = BatchResult{ID: r.ID}
			} else {
				results[i] = BatchResult{Error: r.Error}
			}
		}
		op.resp = Response{Ok: true, Batch: results}
	}
}

// ackLocked records submit-ack wall latency once the scheduling pass that
// admitted the op has completed (engine goroutine).
func (d *Daemon) ackLocked(op *pendingOp) {
	if op.recv.IsZero() {
		return
	}
	ms := d.clock().Sub(op.recv).Seconds() * 1e3
	switch op.req.Op {
	case "submit":
		d.lat.recordAck(ms)
	case "submit_batch":
		for range op.req.Batch {
			d.lat.recordAck(ms)
		}
	}
}

// submitLocked validates one submission and enqueues it as submitted at
// virtual time v (engine goroutine; no advance, no scheduling pass — the
// batch owner does both).
func (d *Daemon) submitLocked(spec *SubmitSpec, v float64) Response {
	if spec.Nodes < 1 || spec.Nodes > d.cfg.Topology.NumNodes() {
		return Response{Error: fmt.Sprintf("nodes %d out of range 1..%d",
			spec.Nodes, d.cfg.Topology.NumNodes())}
	}
	rec := histRecord{submit: v, after: spec.After, nodes: int32(spec.Nodes), state: stateQueued}
	if err := rec.describe(spec.Runtime, spec.Class, spec.Pattern, spec.CommShare); err != nil {
		return Response{Error: err.Error()}
	}
	// Every ID in [1, nextID) was issued. One without a slot finished
	// before the snapshot this daemon was restored from (Restore refills
	// slots of queued and running jobs only), and the pass treats a
	// missing dependency as satisfied.
	if spec.After < 0 || spec.After >= d.nextID {
		return Response{Error: fmt.Sprintf("dependency job %d unknown", spec.After)}
	}
	id := d.nextID
	d.nextID++
	h := d.hist.slot(id)
	*h = rec
	d.hist.setName(h, spec.Name)
	d.queue.Push(id, spec.Nodes)
	return Response{Ok: true, ID: id}
}

// describe checks and sets what kind of job h is, as a submission states it
// and a snapshot restores it: its runtime, its class ("" is compute) and,
// for a comm job, its pattern (default RD) and communication share (0 means
// 0.7).
func (h *histRecord) describe(runtime float64, class, pattern string, share float64) error {
	// Written so NaN fails too: a NaN end never compares in sched.Running,
	// and once first there it stops every later completion.
	if !(runtime > 0) || math.IsInf(runtime, 1) {
		return errors.New("runtime must be positive")
	}
	h.runtime, h.class, h.pattern, h.share = runtime, cluster.ComputeIntensive, collective.RD, 0
	switch class {
	case "", "compute":
		return nil
	case "comm":
		h.class = cluster.CommIntensive
	default:
		return fmt.Errorf("unknown class %q", class)
	}
	if share == 0 {
		share = 0.7
	}
	if !(share >= 0 && share <= 1) {
		return fmt.Errorf("commshare %v out of [0,1]", share)
	}
	h.share = share
	if pattern != "" {
		p, err := collective.ParsePattern(pattern)
		if err != nil {
			return err
		}
		h.pattern = p
	}
	return nil
}

// dispatchLocked executes one non-submit op at virtual time v with its
// classic semantics (engine goroutine) and returns its response; a queue or
// running listing leaves its frame in op. Submit ops never reach it:
// execBatch routes them through the batch machinery so the
// one-pass-per-batch invariant cannot be bypassed.
func (d *Daemon) dispatchLocked(op *pendingOp, v float64) Response {
	switch req := &op.req; req.Op {
	case "status":
		d.tick(v)
		h := d.hist.get(req.ID)
		if h == nil {
			return Response{Error: fmt.Sprintf("unknown job %d", req.ID)}
		}
		ji := d.info(req.ID, h)
		return Response{Ok: true, Job: &ji}
	case "cancel":
		return d.cancelLocked(req.ID, v)
	case "queue", "running":
		d.tick(v)
		m, ids := &d.queued, d.queue.Jobs()
		if req.Op == "running" {
			m, ids = &d.running, d.runningOrdered()
		}
		frame, err := d.listFrame(m, ids)
		if err != nil {
			return Response{Error: req.Op + ": " + err.Error()}
		}
		op.frame = frame
		return Response{Ok: true}
	case "info":
		return d.infoLocked(v)
	case "stats":
		d.tick(v)
		s := d.completed.Summary()
		return Response{
			Ok:             true,
			Completed:      s.Jobs,
			TotalExecHours: s.TotalExecHours,
			TotalWaitHours: s.TotalWaitHours,
			AvgCommCost:    s.AvgCommCost,
			Requeues:       s.Requeues,
			LostNodeHours:  s.LostNodeHours,
			Latency:        d.lat.summary(),
		}
	case "drain":
		return d.nodeOpLocked(req.Node, (*cluster.State).Drain, v)
	case "resume":
		return d.nodeOpLocked(req.Node, (*cluster.State).Resume, v)
	case "fail":
		return d.failLocked(req.Node, v)
	case "shutdown":
		return Response{Ok: true}
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// Submit enqueues a job and returns its ID.
func (d *Daemon) Submit(req Request) Response {
	req.Op = "submit"
	return d.exec1(req)
}

// SubmitBatch admits a batch of jobs in one engine wakeup with a single
// scheduling pass, returning per-item results in submission order.
func (d *Daemon) SubmitBatch(specs []SubmitSpec) Response {
	return d.exec1(Request{Op: "submit_batch", Batch: specs})
}

// Status reports one job.
func (d *Daemon) Status(id int64) Response {
	return d.exec1(Request{Op: "status", ID: id})
}

// Cancel removes a queued job or kills a running one.
func (d *Daemon) Cancel(id int64) Response {
	return d.exec1(Request{Op: "cancel", ID: id})
}

func (d *Daemon) cancelLocked(id int64, v float64) Response {
	d.advance(v)
	h := d.hist.get(id)
	if h == nil {
		return Response{Error: fmt.Sprintf("unknown job %d", id)}
	}
	switch h.state {
	case stateQueued:
		d.queue.Remove(id)
	case stateRunning:
		d.core.Running.Remove(id)
		_ = d.st.Release(cluster.JobID(id))
		h.end = v
	default:
		return Response{Error: fmt.Sprintf("job %d already %s", id, h.state)}
	}
	h.state = stateCancelled
	d.schedule(v)
	return Response{Ok: true, ID: id}
}

// Fail takes a node (by name) down hard: unlike Drain, a job running on
// the node does not keep it — the job is killed and requeued, re-entering
// the pending queue in job-ID order with its requeue counter bumped,
// mirroring SLURM's node-failure requeue and the simulator's fault
// semantics. The response carries the killed job's ID when there was one.
func (d *Daemon) Fail(node string) Response {
	return d.exec1(Request{Op: "fail", Node: node})
}

func (d *Daemon) failLocked(node string, v float64) Response {
	id := d.cfg.Topology.NodeID(node)
	if id < 0 {
		return Response{Error: fmt.Sprintf("unknown node %q", node)}
	}
	d.advance(v)
	victim, err := d.st.Fail(id)
	if err != nil {
		return Response{Error: err.Error()}
	}
	resp := Response{Ok: true}
	if victim >= 0 {
		d.requeueJob(int64(victim), v)
		resp.ID = int64(victim)
	}
	d.schedule(v)
	return resp
}

// requeueJob kills a running job at virtual time v (its failed node is
// already marked down by the caller) and returns it to the pending queue,
// inserted in job-ID order among the queued jobs so the requeued job re-runs
// ahead of later submissions. Engine goroutine only.
func (d *Daemon) requeueJob(id int64, v float64) {
	if _, ok := d.core.Running.Remove(id); !ok {
		return
	}
	h := d.hist.get(id)
	_ = d.st.Release(cluster.JobID(id))
	h.state = stateQueued
	h.requeues++
	h.requeuedAt = v
	h.lostSec += v - h.start
	h.start, h.end = 0, 0
	h.exec, h.cost, h.ratio, h.refCost, h.masks = 0, 0, 0, 0, span{}
	d.queue.Insert(id, int(h.nodes), func(q int64) bool { return q > id })
}

// Drain marks a node (by name) ineligible for new allocations; a running
// job keeps it until completion.
func (d *Daemon) Drain(node string) Response {
	return d.exec1(Request{Op: "drain", Node: node})
}

// Resume returns a drained node (by name) to service.
func (d *Daemon) Resume(node string) Response {
	return d.exec1(Request{Op: "resume", Node: node})
}

func (d *Daemon) nodeOpLocked(node string, op func(*cluster.State, int) error, v float64) Response {
	id := d.cfg.Topology.NodeID(node)
	if id < 0 {
		return Response{Error: fmt.Sprintf("unknown node %q", node)}
	}
	d.advance(v)
	if err := op(d.st, id); err != nil {
		return Response{Error: err.Error()}
	}
	d.schedule(v)
	return Response{Ok: true}
}

// Queue lists queued jobs in FIFO order.
func (d *Daemon) Queue() Response {
	return d.exec1(Request{Op: "queue"})
}

// Running lists running jobs ordered by ID.
func (d *Daemon) Running() Response {
	return d.exec1(Request{Op: "running"})
}

// Info reports cluster-wide state, sinfo-style.
func (d *Daemon) Info() Response {
	return d.exec1(Request{Op: "info"})
}

func (d *Daemon) infoLocked(v float64) Response {
	d.tick(v)
	resp := Response{
		Ok:           true,
		MachineNodes: d.cfg.Topology.NumNodes(),
		FreeNodes:    d.st.FreeTotal(),
		DownNodes:    d.st.DownTotal(),
		FailedNodes:  d.st.FailedTotal(),
		Algorithm:    d.cfg.Algorithm.String(),
		VirtualNow:   v,
	}
	for l := 0; l < d.cfg.Topology.NumLeaves(); l++ {
		resp.Leafs = append(resp.Leafs, LeafInfo{
			Switch: d.cfg.Topology.Leaves[l].Name,
			Nodes:  d.cfg.Topology.LeafSize(l),
			Busy:   d.st.LeafBusy(l),
			Comm:   d.st.LeafComm(l),
			Ratio:  d.st.CommRatio(l),
		})
	}
	return resp
}

// Stats summarises completed jobs.
func (d *Daemon) Stats() Response {
	return d.exec1(Request{Op: "stats"})
}
