package daemon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// fakeClock is a test clock advanced explicitly between protocol calls,
// making virtual time — and therefore every scheduling decision — a pure
// function of the op sequence.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newClockedDaemon(t *testing.T, clk *fakeClock) *Daemon {
	t.Helper()
	d, err := New(Config{
		Topology:  topology.PaperExample(),
		Algorithm: core.Adaptive,
		TimeScale: 1,
		Clock:     clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// identityTrace is a seeded burst of submissions covering both classes,
// several patterns and a validation failure.
func identityTrace(n int, seed int64) []SubmitSpec {
	rng := rand.New(rand.NewSource(seed))
	patterns := []string{"RD", "RHVD", "Binomial", "Ring"}
	specs := make([]SubmitSpec, n)
	for i := range specs {
		s := SubmitSpec{
			Nodes:   1 + rng.Intn(8),
			Runtime: 10 + 100*rng.Float64(),
			Name:    fmt.Sprintf("job-%d", i),
		}
		if rng.Intn(2) == 0 {
			s.Class = "comm"
			s.Pattern = patterns[rng.Intn(len(patterns))]
			s.CommShare = 0.4 + 0.4*rng.Float64()
		}
		if i%17 == 16 {
			s.Nodes = 99 // invalid: must reject without consuming an ID
		}
		specs[i] = s
	}
	return specs
}

// marshal renders a response the way the server does, for byte-level
// comparison.
func marshal(t *testing.T, resp Response) string {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSequentialBatchIdentity is the differential determinism proof for
// the batching engine: the same seeded trace admitted one job per engine
// pass (the pre-batching request path, preserved as singleton batches)
// and admitted in submit_batch chunks under one scheduling pass per
// chunk must produce byte-identical job IDs, states, placements, queue
// listings and stats. Virtual time is pinned by a shared fake clock.
func TestSequentialBatchIdentity(t *testing.T) {
	specs := identityTrace(60, 42)
	for _, chunk := range []int{1, 7, 60} {
		clkA, clkB := newFakeClock(), newFakeClock()
		seq := newClockedDaemon(t, clkA)
		bat := newClockedDaemon(t, clkB)

		var seqLog, batLog []string
		for i := 0; i < len(specs); i++ {
			s := specs[i]
			resp := seq.Submit(Request{Nodes: s.Nodes, Runtime: s.Runtime,
				Class: s.Class, Pattern: s.Pattern, CommShare: s.CommShare,
				Name: s.Name, After: s.After})
			resp.Latency = nil
			seqLog = append(seqLog, marshal(t, resp))
		}
		for i := 0; i < len(specs); i += chunk {
			end := i + chunk
			if end > len(specs) {
				end = len(specs)
			}
			resp := bat.SubmitBatch(specs[i:end])
			if !resp.Ok {
				t.Fatalf("chunk %d: batch failed: %s", chunk, resp.Error)
			}
			for _, br := range resp.Batch {
				batLog = append(batLog, marshal(t, Response{
					Ok: br.Error == "", ID: br.ID, Error: br.Error}))
			}
		}
		if len(seqLog) != len(batLog) {
			t.Fatalf("chunk %d: %d sequential acks vs %d batched", chunk, len(seqLog), len(batLog))
		}
		for i := range seqLog {
			if seqLog[i] != batLog[i] {
				t.Fatalf("chunk %d, ack %d:\nsequential %s\nbatched    %s",
					chunk, i, seqLog[i], batLog[i])
			}
		}

		// Let some jobs finish on both timelines, then compare every
		// observable stream byte for byte.
		clkA.Advance(40 * time.Second)
		clkB.Advance(40 * time.Second)
		for _, q := range []struct {
			name string
			a, b Response
		}{
			{"queue", seq.Queue(), bat.Queue()},
			{"running", seq.Running(), bat.Running()},
			{"info", seq.Info(), bat.Info()},
			{"stats", seq.Stats(), bat.Stats()},
		} {
			// Wall submit-ack latency is measurement, not scheduling
			// state: it legitimately differs between the two paths.
			q.a.Latency, q.b.Latency = nil, nil
			if ma, mb := marshal(t, q.a), marshal(t, q.b); ma != mb {
				t.Fatalf("chunk %d: %s diverged:\nsequential %s\nbatched    %s",
					chunk, q.name, ma, mb)
			}
		}
		for id := int64(1); ; id++ {
			a, b := seq.Status(id), bat.Status(id)
			a.Latency, b.Latency = nil, nil
			if ma, mb := marshal(t, a), marshal(t, b); ma != mb {
				t.Fatalf("chunk %d: status %d diverged:\n%s\n%s", chunk, id, ma, mb)
			}
			if !a.Ok {
				break // ran off the end of the assigned IDs on both
			}
		}
	}
}

// TestPipelinedWireIdentity proves the over-the-wire form of the same
// property, and holds the server's encoder to encoding/json on real
// traffic: every raw response frame, sent one at a time or pipelined, is
// json.Marshal of the response a twin daemon's direct API gives for the
// same op under the same fake clock. The listings carry hostlists, names
// and every float field.
func TestPipelinedWireIdentity(t *testing.T) {
	specs := identityTrace(40, 7)
	frames := make([]Request, 0, len(specs)+2)
	for _, s := range specs {
		frames = append(frames, Request{Op: "submit", Nodes: s.Nodes,
			Runtime: s.Runtime, Class: s.Class, Pattern: s.Pattern,
			CommShare: s.CommShare, Name: s.Name})
	}
	frames = append(frames, Request{Op: "queue"}, Request{Op: "running"})

	for _, pipelined := range []bool{false, true} {
		clk := newFakeClock()
		d, twin := newClockedDaemon(t, clk), newClockedDaemon(t, clk)
		clk.Advance(1500 * time.Millisecond)
		srv := NewServer(d)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		t.Cleanup(srv.Close)
		p, err := DialPipe(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		send := func(f Request) {
			if err := p.Send(f); err != nil {
				t.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if pipelined {
			for _, f := range frames {
				send(f)
			}
		}
		var line []byte
		for i, f := range frames {
			if !pipelined {
				send(f)
			}
			if line, err = readFrame(p.br, line); err != nil {
				t.Fatal(err)
			}
			var want Response
			switch f.Op {
			case "submit":
				want = twin.Submit(f)
			case "queue":
				want = twin.Queue()
			case "running":
				want = twin.Running()
			}
			if m := marshal(t, want); string(line) != m {
				t.Fatalf("pipelined %v, frame %d (%s):\nwire   %s\ndirect %s", pipelined, i, f.Op, line, m)
			}
		}
	}
}

// TestLargeListingOver1MiB pins the fix for the bufio.Scanner fragility:
// a queue listing well past the old 1 MiB frame ceiling must round-trip
// instead of killing the connection.
func TestLargeListingOver1MiB(t *testing.T) {
	clk := newFakeClock()
	d := newClockedDaemon(t, clk)
	srv := NewServer(d)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	const n = 12000
	specs := make([]SubmitSpec, n)
	for i := range specs {
		specs[i] = SubmitSpec{Nodes: 8, Runtime: 3600,
			Name: fmt.Sprintf("padding-job-%06d-with-a-long-name", i)}
	}
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results, err := c.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("batch results = %d, want %d", len(results), n)
	}
	jobs, err := c.Queue()
	if err != nil {
		t.Fatalf("large queue listing failed: %v", err)
	}
	// One job is running (it fit the free machine); the rest are queued.
	if len(jobs) != n-1 {
		t.Fatalf("queue length = %d, want %d", len(jobs), n-1)
	}
	raw, err := json.Marshal(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= 1<<20 {
		t.Fatalf("listing only %d bytes; regression test needs > 1 MiB", len(raw))
	}
	// The same connection keeps working after the giant frame.
	if _, err := c.Status(1); err != nil {
		t.Fatalf("connection dead after large listing: %v", err)
	}
}

// TestShutdownDrainsInflight pins the shutdown-race fix: every request
// pipelined ahead of (and including) a shutdown op receives its response,
// in order, before the server tears the connection down.
func TestShutdownDrainsInflight(t *testing.T) {
	for round := 0; round < 10; round++ {
		d := newTestDaemon(t, core.Adaptive, 1000)
		srv := NewServer(d)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan struct{})
		go func() { srv.Serve(); close(serveDone) }()

		p, err := DialPipe(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		const k = 50
		for i := 0; i < k; i++ {
			if err := p.Send(Request{Op: "submit", Nodes: 1, Runtime: 100}); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Send(Request{Op: "shutdown"}); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= k; i++ {
			resp, err := p.Recv()
			if err != nil {
				t.Fatalf("round %d: response %d/%d lost to shutdown: %v", round, i, k, err)
			}
			if !resp.Ok {
				t.Fatalf("round %d: response %d not ok: %s", round, i, resp.Error)
			}
			if i < k && resp.ID != int64(i+1) {
				t.Fatalf("round %d: response %d has ID %d, want %d (misordered)", round, i, resp.ID, i+1)
			}
		}
		p.Close()
		select {
		case <-serveDone:
		case <-time.After(5 * time.Second):
			t.Fatal("server did not stop after shutdown op")
		}
	}
}

// TestBusyBackpressure stalls the engine so a pipelined burst overflows
// the bounded per-connection queue, and checks the overflow turns into
// typed retryable busy responses in arrival order — never dropped frames.
func TestBusyBackpressure(t *testing.T) {
	d := newTestDaemon(t, core.Adaptive, 1000)
	srv := NewServer(d)
	srv.SetQueueDepth(4)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	// Stall the engine: the dispatcher's next batch blocks behind this.
	gate := make(chan struct{})
	stalled := make(chan struct{})
	go d.call(func() Response {
		close(stalled)
		<-gate
		return Response{Ok: true}
	})
	<-stalled

	p, err := DialPipe(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const burst = 10
	for i := 0; i < burst; i++ {
		if err := p.Send(Request{Op: "submit", Nodes: 1, Runtime: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Give the reader time to classify the burst, then release the engine.
	time.Sleep(50 * time.Millisecond)
	close(gate)

	busy, ok := 0, 0
	for i := 0; i < burst; i++ {
		resp, err := p.Recv()
		if err != nil {
			t.Fatalf("response %d dropped: %v", i, err)
		}
		switch {
		case resp.Ok:
			ok++
		case resp.Error == BusyError:
			if !resp.Retryable {
				t.Fatalf("busy response not marked retryable: %+v", resp)
			}
			busy++
		default:
			t.Fatalf("unexpected response %d: %+v", i, resp)
		}
	}
	if busy == 0 {
		t.Fatalf("no busy responses from a %d-frame burst at depth 4", burst)
	}
	if ok == 0 {
		t.Fatal("every frame rejected; expected some admitted")
	}

	// The synchronous client retries busy responses transparently.
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(Request{Nodes: 1, Runtime: 1}); err != nil {
		t.Fatalf("post-backpressure submit failed: %v", err)
	}
}

// TestClientRetriesBusy drives Client.Do against a scripted server that
// answers busy twice before accepting, checking the client's exponential
// backoff resends rather than surfacing the transient error.
func TestClientRetriesBusy(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		enc := json.NewEncoder(conn)
		for i := 0; ; i++ {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
			if i < 2 {
				enc.Encode(Response{Error: BusyError, Retryable: true})
			} else {
				enc.Encode(Response{Ok: true, ID: 77})
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Submit(Request{Nodes: 1, Runtime: 1})
	if err != nil {
		t.Fatalf("retries did not absorb busy responses: %v", err)
	}
	if id != 77 {
		t.Fatalf("id = %d, want 77", id)
	}
}

// TestPipelinedMixedOpsRace hammers one daemon from many pipelined
// connections with mixed submit_batch/submit/cancel/fail/drain/queue
// traffic. Run under -race in CI; the per-connection assertions check no
// response is dropped or delivered out of order, and cluster invariants
// hold afterwards.
func TestPipelinedMixedOpsRace(t *testing.T) {
	d := newTestDaemon(t, core.Adaptive, 1000)
	srv := NewServer(d)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	const conns = 6
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := DialPipe(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer p.Close()
			var reqs []Request
			for round := 0; round < 20; round++ {
				batch := make([]SubmitSpec, 8)
				for i := range batch {
					batch[i] = SubmitSpec{Nodes: 1 + (round+i)%4, Runtime: 0.5,
						Name: fmt.Sprintf("w%d-r%d-%d", w, round, i)}
				}
				reqs = append(reqs,
					Request{Op: "submit_batch", Batch: batch},
					Request{Op: "submit", Nodes: 1, Runtime: 0.5, Name: fmt.Sprintf("w%d-s%d", w, round)},
					Request{Op: "cancel", ID: int64(w*100 + round)},
					Request{Op: "queue"},
					Request{Op: "stats"},
					Request{Op: "drain", Node: "n1"},
					Request{Op: "resume", Node: "n1"},
					Request{Op: "fail", Node: fmt.Sprintf("n%d", 1+(w+round)%8)},
				)
			}
			for _, r := range reqs {
				if err := p.Send(r); err != nil {
					errs <- err
					return
				}
			}
			if err := p.Flush(); err != nil {
				errs <- err
				return
			}
			for i, r := range reqs {
				resp, err := p.Recv()
				if err != nil {
					errs <- fmt.Errorf("conn %d: response %d/%d dropped: %v", w, i, len(reqs), err)
					return
				}
				// Responses must match their request positionally.
				switch r.Op {
				case "submit_batch":
					if resp.Error == BusyError {
						continue
					}
					if !resp.Ok || len(resp.Batch) != len(r.Batch) {
						errs <- fmt.Errorf("conn %d: batch response misordered at %d: %+v", w, i, resp)
						return
					}
				case "queue", "stats":
					if resp.Error == BusyError {
						continue
					}
					if !resp.Ok {
						errs <- fmt.Errorf("conn %d: %s failed at %d: %s", w, r.Op, i, resp.Error)
						return
					}
					if len(resp.Batch) != 0 {
						errs <- fmt.Errorf("conn %d: %s got a batch response (misordered): %+v", w, r.Op, resp)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	resp := d.call(func() Response {
		if err := d.st.CheckInvariants(); err != nil {
			return Response{Error: err.Error()}
		}
		return Response{Ok: true}
	})
	if !resp.Ok {
		t.Fatalf("cluster invariants violated after mixed load: %s", resp.Error)
	}
}

// TestReadFrameResyncsAfterGarbage exercises readFrame's per-line
// recovery directly: garbage lines yield malformed-request responses and
// the frame stream stays aligned.
func TestReadFrameResyncsAfterGarbage(t *testing.T) {
	input := "{not json}\n" + `{"op":"info"}` + "\n"
	br := bufio.NewReader(strings.NewReader(input))
	var buf []byte
	line, err := readFrame(br, buf)
	if err != nil || string(line) != "{not json}" {
		t.Fatalf("frame 1 = %q, %v", line, err)
	}
	line, err = readFrame(br, line)
	if err != nil || string(line) != `{"op":"info"}` {
		t.Fatalf("frame 2 = %q, %v", line, err)
	}
	// A frame much larger than the bufio window self-appends.
	big := strings.Repeat("x", 1<<20)
	br = bufio.NewReader(strings.NewReader(big + "\n"))
	line, err = readFrame(br, line)
	if err != nil || len(line) != 1<<20 {
		t.Fatalf("huge frame = %d bytes, %v", len(line), err)
	}
	// EOF-terminated final frame still counts.
	br = bufio.NewReader(strings.NewReader(`{"op":"stats"}`))
	line, err = readFrame(br, line)
	if err != nil || string(line) != `{"op":"stats"}` {
		t.Fatalf("eof frame = %q, %v", line, err)
	}
}
