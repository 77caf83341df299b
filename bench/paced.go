package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/topology"
)

// The open-loop generator. Independent submitters do not wait for each
// other's acks, so frames are sent on a schedule whatever the daemon does,
// and every latency is measured from the moment the frame was DUE, not
// from when it was actually sent: a stall delays the frames queued behind
// it, and that delay is part of what their submitters see.

// pacedFrame is one submit_batch frame and when it is due, measured from
// the start of the rung.
type pacedFrame struct {
	specs []daemon.SubmitSpec
	due   time.Duration
}

const (
	busyRetries = 8 // resends of a frame refused with a busy response
	busyBackoff = time.Millisecond
)

// pacedOutcome is what the generator observed.
type pacedOutcome struct {
	latMs  []float64 // due time to ack, per acked frame
	lateMs []float64 // due time to first send, per frame sent
	ids    []int64   // job IDs acked
	wall   time.Duration

	acked   int // jobs acked without error
	failed  int // jobs refused, dropped after retries, or never acked
	retries int // frames resent after busy
	errs    []string
}

type pacedConn struct {
	frames []int // indexes into the frame list, in due order
	out    pacedOutcome
}

// openLoop sends frames[i] on connection i%conns at its due time and
// collects the acks. It returns when every frame is acked, dropped or its
// connection has failed.
func openLoop(addr string, frames []pacedFrame, conns int) (pacedOutcome, error) {
	pipes := make([]*daemon.Pipe, conns)
	for c := range pipes {
		p, err := daemon.DialPipe(addr)
		if err != nil {
			for _, q := range pipes[:c] {
				q.Close()
			}
			return pacedOutcome{}, err
		}
		pipes[c] = p
	}
	per := make([]pacedConn, conns)
	for i := range frames {
		per[i%conns].frames = append(per[i%conns].frames, i)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(pc *pacedConn, p *daemon.Pipe) {
			defer wg.Done()
			pc.drive(p, frames, start)
		}(&per[c], pipes[c])
	}
	wg.Wait()
	var out pacedOutcome
	out.wall = time.Since(start)
	for c := range per {
		pipes[c].Close()
		o := &per[c].out
		out.latMs = append(out.latMs, o.latMs...)
		out.lateMs = append(out.lateMs, o.lateMs...)
		out.ids = append(out.ids, o.ids...)
		out.acked += o.acked
		out.failed += o.failed
		out.retries += o.retries
		out.errs = append(out.errs, o.errs...)
	}
	return out, nil
}

// drive runs one connection: this goroutine sends, a second one receives.
// Responses arrive in request order, so the receiver learns which frame
// an ack belongs to from the order of sends.
func (pc *pacedConn) drive(p *daemon.Pipe, frames []pacedFrame, start time.Time) {
	// Every send (first or resend) queues its frame index; capacity covers
	// the worst case so the sender never blocks on the receiver.
	order := make(chan int, len(pc.frames)*(busyRetries+1))
	retry := make(chan int, len(pc.frames))
	done := make(chan struct{})
	tries := make(map[int]int)
	var sendErr error

	var recv sync.WaitGroup
	recv.Add(1)
	go func() {
		defer recv.Done()
		defer close(done)
		o := &pc.out
		for settled := 0; settled < len(pc.frames); {
			idx, ok := <-order
			if !ok {
				return // the sender failed; it accounts for the rest
			}
			resp, err := p.Recv()
			jobs := len(frames[idx].specs)
			switch {
			case err != nil:
				o.errs = append(o.errs, fmt.Sprintf("recv: %v", err))
				return
			case resp.Retryable:
				if tries[idx]++; tries[idx] > busyRetries {
					o.failed += jobs
					settled++
					continue
				}
				o.retries++
				backoff := busyBackoff << (tries[idx] - 1)
				time.AfterFunc(backoff, func() { retry <- idx })
			case !resp.Ok || len(resp.Batch) != jobs:
				o.failed += jobs
				o.errs = append(o.errs, fmt.Sprintf("frame %d refused: %s", idx, resp.Error))
				settled++
			default:
				o.latMs = append(o.latMs, ms(time.Since(start)-frames[idx].due))
				for _, b := range resp.Batch {
					if b.Error != "" {
						o.failed++
						continue
					}
					o.acked++
					o.ids = append(o.ids, b.ID)
				}
				settled++
			}
		}
	}()

	send := func(idx int) bool {
		order <- idx
		err := p.Send(daemon.Request{Op: "submit_batch", Batch: frames[idx].specs})
		if err == nil {
			err = p.Flush()
		}
		if err != nil {
			sendErr = err
			return false
		}
		return true
	}
	next := 0
loop:
	for {
		var due <-chan time.Time
		if next < len(pc.frames) {
			idx := pc.frames[next]
			wait := frames[idx].due - time.Since(start)
			if wait <= 0 {
				pc.out.lateMs = append(pc.out.lateMs, ms(-wait))
				next++
				if !send(idx) {
					break loop
				}
				continue
			}
			due = time.After(wait)
		}
		select {
		case <-due:
		case idx := <-retry:
			if !send(idx) {
				break loop
			}
		case <-done:
			break loop
		}
	}
	if sendErr != nil {
		close(order)
	}
	recv.Wait()
	o := &pc.out
	if sendErr != nil {
		o.errs = append(o.errs, fmt.Sprintf("send: %v", sendErr))
	}
	// Whatever was neither acked nor already counted as failed was lost:
	// frames never sent, or sent and never answered.
	total := 0
	for _, idx := range pc.frames {
		total += len(frames[idx].specs)
	}
	if lost := total - o.acked - o.failed; lost > 0 {
		o.failed += lost
	}
}

// pacedFrames builds the frames of a rung: n Theta jobs whose virtual
// arrivals, divided by timeScale, are the wall-clock due times. A frame
// is due when its last job arrives.
func pacedFrames(topo *topology.Topology, n int, seed int64, stream int, rate float64) ([]pacedFrame, float64) {
	in := daemonSpecs(topo, n, seed, stream, 1)
	timeScale := rate * in.span() / float64(n)
	frames := make([]pacedFrame, 0, (n+frameJobs-1)/frameJobs)
	for lo := 0; lo < n; lo += frameJobs {
		hi := min(lo+frameJobs, n)
		wall := (in.submit[hi-1] - in.submit[0]) / timeScale
		frames = append(frames, pacedFrame{in.specs[lo:hi], time.Duration(wall * float64(time.Second))})
	}
	return frames, timeScale
}

// rungStats is one rung's outcome plus the daemon's own view.
type rungStats struct {
	pacedOutcome
	starts  int64
	lat     daemon.LatencyStats
	drained bool // the machine emptied within drainLimit of the last ack
}

// pacedRung offers `rate` jobs/s for `seconds` to a fresh daemon whose
// time scale makes that rate the preset's 0.85 virtual load. Up to
// pacedRate a job that is not acked, or a machine that does not empty, is
// a failed operation. The diagnostic rungs above it exist to find the
// knee, which moves with the host's speed; overload there is an outcome
// (daemon.knee_rate), not a failure.
func (r *run) pacedRung(topo *topology.Topology, k int, rate, seconds float64, timed bool) (rungStats, error) {
	n := int(rate * seconds)
	frames, timeScale := pacedFrames(topo, n, r.seed, streamPaced+k, rate)
	s, err := serve(daemon.Config{Topology: topo, Algorithm: core.Adaptive, TimeScale: timeScale})
	if err != nil {
		return rungStats{}, err
	}
	defer s.stop()

	var rs rungStats
	runtime.GC()
	span := r.tr.begin("daemon.rung", -1, int64(rate))
	offer := func() { rs.pacedOutcome, err = openLoop(s.addr(), frames, pacedConns) }
	if timed {
		// The pacing is wall clock; what the host's speed changes is how
		// long an ack takes and what it costs, so those are scaled.
		_, scale := r.timed(offer)
		for i := range rs.latMs {
			rs.latMs[i] *= scale
		}
	} else {
		offer()
	}
	r.tr.end(span)
	if err != nil {
		return rs, err
	}
	if st := s.d.Stats(); st.Latency != nil {
		rs.lat = *st.Latency
		rs.starts = st.Latency.Starts
	}

	// Correctness: every job acked exactly once with its own ID, and the
	// machine empties once the offered load stops.
	overload := r.fail
	if rate > pacedRate {
		overload = func(int, string, ...any) {}
	}
	r.op(n)
	if rs.failed > 0 {
		overload(rs.failed, "%s %.0f/s: %d of %d jobs refused, dropped or never acked: %v",
			r.spec.Name, rate, rs.failed, n, rs.errs)
	}
	seen := make(map[int64]bool, len(rs.ids))
	for _, id := range rs.ids {
		if id <= 0 || seen[id] {
			r.fail(1, "%s %.0f/s: job ID %d acked twice or invalid", r.spec.Name, rate, id)
		}
		seen[id] = true
	}
	r.op(1)
	deadline := time.Now().Add(time.Duration(drainLimit * float64(time.Second)))
	for {
		info := s.d.Info()
		if info.Ok && info.FreeNodes == info.MachineNodes {
			rs.drained = true
			break
		}
		if time.Now().After(deadline) {
			overload(1, "%s %.0f/s: %d of %d nodes free %.0fs after the last ack",
				r.spec.Name, rate, info.FreeNodes, info.MachineNodes, drainLimit)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return rs, nil
}

func setupPaced(r *run) (any, error) {
	topo := topology.Theta()
	warm := &run{spec: r.spec, seed: r.seed, metrics: map[string]float64{}}
	if _, err := warm.pacedRung(topo, len(pacedRungs), pacedRate, pacedWarmSeconds, false); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %v", warm.errs)
	}
	return topo, nil
}

// measurePaced offers pacedRate in rungs of pacedRungSeconds, each to a
// fresh daemon and each between two host-speed samples: a rung is short
// enough that the host's speed rarely changes inside it.
func measurePaced(r *run, v any) error {
	topo := v.(*topology.Topology)
	rungs := max(1, int(r.budget.Seconds()/pacedRungSeconds))
	seconds := r.budget.Seconds() / float64(rungs)
	var acked, starts, wall float64
	var latMs, lateMs []float64
	for k := 0; k < rungs; k++ {
		rs, err := r.pacedRung(topo, len(pacedRungs)+1+k, pacedRate, seconds, true)
		if err != nil {
			return err
		}
		acked += float64(rs.acked)
		starts += float64(rs.starts)
		wall += rs.wall.Seconds()
		latMs = append(latMs, rs.latMs...)
		lateMs = append(lateMs, rs.lateMs...)
	}
	r.note("bench.late_ms", lateMs, "ms")
	r.endToEnd(acked, acked/wall, starts/wall, latMs)
	return nil
}

func tracePaced(r *run, v any) error {
	topo := v.(*topology.Topology)
	knee := 0.0
	for k, rung := range pacedRungs {
		rs, err := r.pacedRung(topo, k, rung.Rate, r.budget.Seconds()/float64(len(pacedRungs)), false)
		if err != nil {
			return err
		}
		wall := rs.wall.Seconds()
		set := func(name string, v float64) { r.set(name+"."+rung.Tag, v) }
		set("daemon.ack_p50_ms", quantile(rs.latMs, 0.50))
		set("daemon.ack_p95_ms", quantile(rs.latMs, 0.95))
		set("daemon.ack_p99_ms", quantile(rs.latMs, 0.99))
		set("daemon.engine_ack_p50_ms", rs.lat.WallP50Ms)
		set("daemon.achieved_jobs_per_s", float64(rs.acked)/wall)
		set("daemon.started_frac", ratio(float64(rs.starts), float64(rs.acked)))
		set("daemon.busy_retries", float64(rs.retries))
		set("daemon.wait_p50_vs", rs.lat.WaitP50)
		set("bench.late_p99_ms", quantile(rs.lateMs, 0.99))
		r.note("daemon.ack_ms."+rung.Tag, rs.latMs, "ms")
		if quantile(rs.latMs, 0.95) <= kneeP95Ms && rs.failed == 0 && rs.drained && quantile(rs.lateMs, 0.99) <= kneeLateMs {
			knee = rung.Rate
		}
	}
	r.set("daemon.knee_rate", knee)
	return nil
}
