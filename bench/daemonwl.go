package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/topology"
)

// vclock is the bench-owned virtual clock of the closed-loop daemon
// workloads. The daemon only ever sees the times the client sets, so the
// schedule is a pure function of the input, whatever the machine's speed.
type vclock struct {
	base time.Time
	off  atomic.Int64 // nanoseconds past base
}

func newVClock() *vclock { return &vclock{base: time.Unix(1_600_000_000, 0)} }

func (c *vclock) now() time.Time { return c.base.Add(time.Duration(c.off.Load())) }

// set moves the clock to the given virtual second (TimeScale is 1).
func (c *vclock) set(sec float64) { c.off.Store(int64(sec * float64(time.Second))) }

// served is a daemon behind its TCP server on a loopback port.
type served struct {
	d    *daemon.Daemon
	srv  *daemon.Server
	done chan error
}

func serve(cfg daemon.Config) (*served, error) {
	d, err := daemon.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &served{d: d, srv: daemon.NewServer(d), done: make(chan error, 1)}
	if err := s.srv.Listen("127.0.0.1:0"); err != nil {
		d.Close()
		return nil, err
	}
	go func() { s.done <- s.srv.Serve() }()
	return s, nil
}

func (s *served) addr() string { return s.srv.Addr().String() }

// stop closes the server and the engine and waits for the accept loop.
func (s *served) stop() {
	s.srv.Close()
	<-s.done
}

// caller performs one protocol operation, over the wire or through the
// daemon's direct API, recording spans under parent when tracing.
type caller interface {
	call(tr *tracer, parent int, id int64, req daemon.Request) (daemon.Response, error)
}

type wireCaller struct{ p *daemon.Pipe }

func (c wireCaller) call(tr *tracer, parent int, id int64, req daemon.Request) (daemon.Response, error) {
	s := tr.begin("bench.encode."+req.Op, parent, id)
	err := c.p.Send(req)
	tr.end(s)
	if err != nil {
		return daemon.Response{}, err
	}
	s = tr.begin("daemon.wire."+req.Op, parent, id)
	defer tr.end(s)
	if err := c.p.Flush(); err != nil {
		return daemon.Response{}, err
	}
	return c.p.Recv()
}

type directCaller struct{ d *daemon.Daemon }

func (c directCaller) call(tr *tracer, parent int, id int64, req daemon.Request) (daemon.Response, error) {
	s := tr.begin("daemon.direct."+req.Op, parent, id)
	defer tr.end(s)
	switch req.Op {
	case "submit_batch":
		return c.d.SubmitBatch(req.Batch), nil
	case "status":
		return c.d.Status(req.ID), nil
	case "queue":
		return c.d.Queue(), nil
	case "running":
		return c.d.Running(), nil
	case "stats":
		return c.d.Stats(), nil
	}
	return daemon.Response{}, fmt.Errorf("direct caller: unsupported op %q", req.Op)
}

// loopStats is what one pass over the submission stream observed.
type loopStats struct {
	wall      time.Duration // frames and reads, as the clock read it
	refWall   float64       // the same in reference seconds (scaled passes)
	frameUs   []float64     // submit_batch round trip per frame
	statusUs  []float64
	queueMs   []float64
	runningMs []float64
	statsMs   []float64

	acked      int
	starts     int64
	completed  int
	queueEnd   int
	queueMax   int
	runningMax int
	execHours  float64
}

// closedLoop submits the first n jobs in frames of frameJobs with one
// frame outstanding: set the clock to the frame's last submit time, submit,
// read one earlier job's status, and every readEvery frames list the
// queue, the running set and the statistics. Reads are inside the wall
// time. Every response is checked; failures are counted, not fatal. With
// scaled the pass is part of the run's timed regions and its times are in
// reference seconds.
func (r *run) closedLoop(in *daemonInput, n int, clock *vclock, c caller, tr *tracer, scaled bool) loopStats {
	var ls loopStats
	read := func(dst *[]float64, unit time.Duration, parent int, id int64, req daemon.Request) (daemon.Response, bool) {
		t0 := time.Now()
		resp, err := c.call(tr, parent, id, req)
		*dst = append(*dst, float64(time.Since(t0))/float64(unit))
		r.op(1)
		if err == nil && !resp.Ok {
			err = fmt.Errorf("%s", resp.Error)
		}
		if err != nil {
			r.fail(1, "%s %s: %v", r.spec.Name, req.Op, err)
			return resp, false
		}
		return resp, true
	}
	reads := func(id int64) {
		if resp, ok := read(&ls.queueMs, time.Millisecond, -1, id, daemon.Request{Op: "queue"}); ok {
			ls.queueEnd = len(resp.Jobs)
			ls.queueMax = max(ls.queueMax, len(resp.Jobs))
		}
		if resp, ok := read(&ls.runningMs, time.Millisecond, -1, id, daemon.Request{Op: "running"}); ok {
			ls.runningMax = max(ls.runningMax, len(resp.Jobs))
		}
		if resp, ok := read(&ls.statsMs, time.Millisecond, -1, id, daemon.Request{Op: "stats"}); ok {
			ls.completed = resp.Completed
			ls.execHours = resp.TotalExecHours
			if resp.Latency != nil {
				ls.starts = resp.Latency.Starts
			}
		}
	}

	frame := func(f int) {
		lo, hi := f*frameJobs, min((f+1)*frameJobs, n)
		clock.set(in.submit[hi-1])
		span := tr.begin("bench.frame", -1, int64(f))
		t0 := time.Now()
		resp, err := c.call(tr, span, int64(f), daemon.Request{Op: "submit_batch", Batch: in.specs[lo:hi]})
		ls.frameUs = append(ls.frameUs, us(time.Since(t0)))
		tr.end(span)
		r.op(hi - lo)
		switch {
		case err != nil:
			r.fail(hi-lo, "%s frame %d: %v", r.spec.Name, f, err)
		case !resp.Ok || len(resp.Batch) != hi-lo:
			r.fail(hi-lo, "%s frame %d refused: %s", r.spec.Name, f, resp.Error)
		default:
			// IDs are dense in submission order, so each job is admitted
			// exactly once.
			for i, b := range resp.Batch {
				if b.Error != "" || b.ID != int64(lo+i+1) {
					r.fail(1, "%s job %d: id %d, error %q", r.spec.Name, lo+i, b.ID, b.Error)
				} else {
					ls.acked++
				}
			}
		}
		read(&ls.statusUs, time.Microsecond, -1, int64(f), daemon.Request{Op: "status", ID: int64(in.statusOf[f] + 1)})
	}

	// One segment is readEvery frames and the reads that follow them. A
	// timed pass converts each segment's times to reference time on its
	// own, so a change of host speed inside the pass is followed.
	frames := (n + frameJobs - 1) / frameJobs
	for lo := 0; lo < frames; lo += readEvery {
		hi := min(lo+readEvery, frames)
		first := len(ls.frameUs)
		segment := func() {
			for f := lo; f < hi; f++ {
				frame(f)
			}
			if hi-lo == readEvery {
				reads(int64(hi - 1))
			}
			if hi == frames {
				reads(-1)
			}
		}
		if !scaled {
			t0 := time.Now()
			segment()
			ls.wall += time.Since(t0)
			continue
		}
		d, scale := r.timed(segment)
		ls.refWall += d
		ls.wall += time.Duration(d / scale * float64(time.Second))
		for i := first; i < len(ls.frameUs); i++ {
			ls.frameUs[i] *= scale
		}
	}
	return ls
}

// checkLoop fingerprints the deterministic outcome of one pass.
func (r *run) checkLoop(ls loopStats) {
	r.check("starts", fmt.Sprint(ls.starts))
	r.check("completed", fmt.Sprint(ls.completed))
	r.check("queue_depth_end", fmt.Sprint(ls.queueEnd))
	r.check("total_exec_hours", bits(ls.execHours))
}

func daemonConfig(topo *topology.Topology, clock *vclock) daemon.Config {
	return daemon.Config{Topology: topo, Algorithm: core.Adaptive, TimeScale: 1, Clock: clock.now}
}

// wireLoop runs closedLoop against a fresh daemon over one pipe. The
// daemon and connection are built and torn down outside the timed region.
func (r *run) wireLoop(in *daemonInput, n int, tr *tracer, timed bool) (loopStats, error) {
	clock := newVClock()
	s, err := serve(daemonConfig(in.topo, clock))
	if err != nil {
		return loopStats{}, err
	}
	defer s.stop()
	p, err := daemon.DialPipe(s.addr())
	if err != nil {
		return loopStats{}, err
	}
	defer p.Close()
	if timed {
		runtime.GC()
	}
	return r.closedLoop(in, n, clock, wireCaller{p}, tr, timed), nil
}

func daemonSpeedup(name string) float64 {
	if name == wDaemonBacklog {
		return backlogSpeedup
	}
	return 1
}

func setupDaemon(r *run) (any, error) {
	in := daemonSpecs(topology.Theta(), r.spec.Jobs, r.seed, streamDaemon, daemonSpeedup(r.spec.Name))
	// A throwaway instance serves the first jobs once, so the code and the
	// schedule memo are warm before the first timed frame.
	warm := &run{spec: r.spec, metrics: map[string]float64{}}
	if _, err := warm.wireLoop(in, min(warmupJobs, len(in.specs)), nil, false); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %v", warm.errs)
	}
	return in, nil
}

func measureDaemon(r *run, v any) error {
	in := v.(*daemonInput)
	n := len(in.specs)
	var jobRate, startRate, frameMs []float64
	jobs := 0
	begin := time.Now()
	for rep := 0; rep < r.spec.MinReps || !r.spent(begin); rep++ {
		ls, err := r.wireLoop(in, n, nil, true)
		if err != nil {
			return err
		}
		r.checkLoop(ls)
		jobs += n
		jobRate = append(jobRate, float64(ls.acked)/ls.refWall)
		startRate = append(startRate, float64(ls.starts)/ls.refWall)
		for _, u := range ls.frameUs {
			frameMs = append(frameMs, u/1e3)
		}
	}
	r.note("jobs_per_s", jobRate, "jobs/s")
	r.endToEnd(float64(jobs), median(jobRate), median(startRate), frameMs)
	return nil
}

func traceDaemon(r *run, v any) error {
	in := v.(*daemonInput)
	n := len(in.specs)
	jobs := float64(n)

	// Pass 1, untraced over the wire: the baseline the traced pass is
	// compared with, and the frame timestamps for the decile metrics.
	base, err := r.wireLoop(in, n, nil, false)
	if err != nil {
		return err
	}
	r.checkLoop(base)

	// Pass 2, traced over the wire.
	wire, err := r.wireLoop(in, n, r.tr, false)
	if err != nil {
		return err
	}
	r.checkLoop(wire)

	// Pass 3, the identical input through the direct API: no socket, no
	// encoding, so wire cost = pass 2 - pass 3.
	clock := newVClock()
	cfg := daemonConfig(in.topo, clock)
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	direct := r.closedLoop(in, n, clock, directCaller{d}, r.tr, false)
	r.checkLoop(direct)

	var snap bytes.Buffer
	t0 := time.Now()
	err = d.SaveState(&snap)
	r.set("daemon.save_state_ms", ms(time.Since(t0)))
	if err != nil {
		return err
	}
	r.set("daemon.state_mb", float64(snap.Len())/(1<<20))
	t0 = time.Now()
	restored, err := daemon.Restore(cfg, &snap)
	r.set("daemon.restore_ms", ms(time.Since(t0)))
	if err != nil {
		return err
	}
	restored.Close()

	lt := r.tr.layerTimes()
	engine := lt["daemon.direct.submit_batch"].Total
	r.set("daemon.engine_us_per_job", us(engine)/jobs)
	r.set("daemon.wire_us_per_job", us(lt["daemon.wire.submit_batch"].Total-engine)/jobs)
	r.set("bench.encode_us_per_job", us(lt["bench.encode.submit_batch"].Total)/jobs)

	decile := len(base.frameUs) / 10
	first := sum(base.frameUs[:decile]) / float64(decile*frameJobs)
	last := sum(base.frameUs[len(base.frameUs)-decile:]) / float64(decile*frameJobs)
	r.set("daemon.us_per_job_first_decile", first)
	r.set("daemon.us_per_job_last_decile", last)
	r.set("daemon.slowdown_last_over_first", ratio(last, first))

	r.set("daemon.status_us", median(base.statusUs))
	r.set("daemon.queue_ms", median(base.queueMs))
	r.set("daemon.running_ms", median(base.runningMs))
	r.set("daemon.stats_ms_first", base.statsMs[0])
	r.set("daemon.stats_ms_last", base.statsMs[len(base.statsMs)-1])
	r.note("daemon.status_us", base.statusUs, "us")
	r.note("daemon.queue_ms", base.queueMs, "ms")

	r.set("daemon.starts", float64(base.starts))
	r.set("daemon.completed", float64(base.completed))
	r.set("daemon.queue_depth_end", float64(base.queueEnd))
	r.set("daemon.queue_depth_max", float64(base.queueMax))
	r.set("daemon.running_max", float64(base.runningMax))
	r.set("bench.trace_overhead_frac", wire.wall.Seconds()/base.wall.Seconds()-1)
	return nil
}
