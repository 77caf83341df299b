package main

import (
	"bufio"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/daemon"
)

// stubServer speaks just enough of the protocol for the generator: it
// answers every submit_batch with fresh IDs, in order, and lets a test
// decide per frame to stall, refuse with busy, or hang up.
type stubServer struct {
	ln net.Listener
	wg sync.WaitGroup

	// before is called with the 0-based count of frames read so far on the
	// connection; it returns the action for this frame.
	before func(frame int) stubAction
}

type stubAction int

const (
	stubAck stubAction = iota
	stubBusy
	stubHangUp
)

func newStub(t *testing.T, before func(frame int) stubAction) *stubServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubServer{ln: ln, before: before}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *stubServer) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	enc := json.NewEncoder(conn)
	nextID := int64(1)
	for frame := 0; ; frame++ {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return
		}
		var req daemon.Request
		if err := json.Unmarshal(line, &req); err != nil {
			return
		}
		var resp daemon.Response
		switch s.before(frame) {
		case stubHangUp:
			return
		case stubBusy:
			resp = daemon.Response{Error: daemon.BusyError, Retryable: true}
		default:
			resp = daemon.Response{Ok: true, Batch: make([]daemon.BatchResult, len(req.Batch))}
			for i := range resp.Batch {
				resp.Batch[i].ID = nextID
				nextID++
			}
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// evenFrames returns n one-job frames due every gap.
func evenFrames(n int, gap time.Duration) []pacedFrame {
	frames := make([]pacedFrame, n)
	for i := range frames {
		frames[i] = pacedFrame{
			specs: []daemon.SubmitSpec{{Nodes: 1, Runtime: 60}},
			due:   time.Duration(i) * gap,
		}
	}
	return frames
}

// A 50 ms stall in the server delays every frame queued behind it. Timed
// from its due time, each of those frames shows the part of the stall it
// sat through; timed from its send time (coordinated omission) it would
// show almost nothing.
func TestOpenLoopLatencyCountsQueueingBehindAStall(t *testing.T) {
	const (
		stallAt = 10
		stall   = 50 * time.Millisecond
		gap     = 2 * time.Millisecond
		slack   = 8.0 // ms of scheduling tolerance
	)
	s := newStub(t, func(frame int) stubAction {
		if frame == stallAt {
			time.Sleep(stall)
		}
		return stubAck
	})
	frames := evenFrames(60, gap)
	out, err := openLoop(s.ln.Addr().String(), frames, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.acked != len(frames) || len(out.latMs) != len(frames) {
		t.Fatalf("acked %d failed %d latencies %d of %d frames: %v",
			out.acked, out.failed, len(out.latMs), len(frames), out.errs)
	}
	// One connection: latMs is in frame order.
	for k := 0; k < 20; k++ {
		want := ms(stall) - float64(k)*ms(gap) - slack
		if got := out.latMs[stallAt+k]; got < want {
			t.Errorf("frame %d: %.1f ms from its due time, want at least %.1f (it queued behind the stall)",
				stallAt+k, got, want)
		}
	}
	if before := median(out.latMs[:stallAt]); before > slack {
		t.Errorf("frames before the stall took %.1f ms", before)
	}
}

// Frames that are already overdue when the generator reaches them are
// sent at once and their lateness is reported, one sample per frame.
func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	s := newStub(t, func(int) stubAction { return stubAck })
	frames := evenFrames(50, 0)
	for i := range frames {
		frames[i].due = -20 * time.Millisecond // due before the run began
	}
	out, err := openLoop(s.ln.Addr().String(), frames, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.lateMs) != len(frames) {
		t.Fatalf("%d lateness samples for %d frames", len(out.lateMs), len(frames))
	}
	if p99 := quantile(out.lateMs, 0.99); p99 < 20 {
		t.Errorf("lateness p99 %.1f ms, want at least the 20 ms the frames were overdue", p99)
	}
	if p50 := median(out.latMs); p50 < 20 {
		t.Errorf("latency p50 %.1f ms does not include the lateness", p50)
	}
}

// Busy responses are retried; a frame still refused after the last retry,
// and every frame lost to a dropped connection, counts as failed.
func TestOpenLoopCountsEveryLostJob(t *testing.T) {
	t.Run("retry", func(t *testing.T) {
		s := newStub(t, func(frame int) stubAction {
			if frame == 3 {
				return stubBusy
			}
			return stubAck
		})
		frames := evenFrames(10, time.Millisecond)
		out, err := openLoop(s.ln.Addr().String(), frames, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out.retries != 1 || out.failed != 0 || out.acked != len(frames) {
			t.Errorf("retries %d failed %d acked %d", out.retries, out.failed, out.acked)
		}
	})
	t.Run("always busy", func(t *testing.T) {
		s := newStub(t, func(int) stubAction { return stubBusy })
		out, err := openLoop(s.ln.Addr().String(), evenFrames(2, 0), 1)
		if err != nil {
			t.Fatal(err)
		}
		if out.acked != 0 || out.failed != 2 || out.retries != 2*busyRetries {
			t.Errorf("acked %d failed %d retries %d", out.acked, out.failed, out.retries)
		}
	})
	t.Run("hang up", func(t *testing.T) {
		s := newStub(t, func(frame int) stubAction {
			if frame == 4 {
				return stubHangUp
			}
			return stubAck
		})
		frames := evenFrames(30, time.Millisecond)
		out, err := openLoop(s.ln.Addr().String(), frames, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out.acked != 4 || out.acked+out.failed != len(frames) {
			t.Errorf("acked %d + failed %d != %d frames", out.acked, out.failed, len(frames))
		}
	})
}
