package daemon

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// benchServer stands up an in-process daemon + TCP server. A huge time
// scale makes every 1-second job complete before the next op, so the
// pending queue stays shallow and ns/op measures the serving path, not
// queue growth.
func benchServer(b *testing.B) *Server {
	b.Helper()
	d, err := New(Config{
		Topology:  topology.PaperExample(),
		Algorithm: core.Adaptive,
		TimeScale: 1e9,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(d)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	b.Cleanup(srv.Close)
	return srv
}

// BenchmarkDaemonSubmitThroughput measures the one-op-per-pass serving
// path: a synchronous client submits one job per frame and waits for
// each ack (the pre-batching daemon's only mode). ns/op is per job.
func BenchmarkDaemonSubmitThroughput(b *testing.B) {
	srv := benchServer(b)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := Request{Nodes: 1, Runtime: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Submit(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDaemonSubmitThroughputBatched measures the batched path: 64
// jobs per submit_batch frame, one engine wakeup and one scheduling pass
// per frame. ns/op is per job, directly comparable with the sequential
// benchmark above.
func BenchmarkDaemonSubmitThroughputBatched(b *testing.B) {
	srv := benchServer(b)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const chunk = 64
	specs := make([]SubmitSpec, chunk)
	for i := range specs {
		specs[i] = SubmitSpec{Nodes: 1, Runtime: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		n := chunk
		if rem := b.N - done; rem < n {
			n = rem
		}
		if _, err := c.SubmitBatch(specs[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueueListing renders a 14k-job queue listing on the engine, as
// daemon_backlog's last listings are: 1,024 of its jobs were queued since
// the listing before. "memo" is the queue op's render, which copies the
// other rows from the last listing; "fresh" builds every row's JobInfo
// and encodes the whole response into a reused buffer, as the writer did
// before.
func BenchmarkQueueListing(b *testing.B) {
	const batches, since = 14, 1024
	clk := newFakeClock()
	d, err := New(Config{Topology: topology.PaperExample(), Algorithm: core.Adaptive, TimeScale: 1, Clock: clk.Now})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	specs := make([]SubmitSpec, since)
	for i := range specs {
		specs[i] = SubmitSpec{Nodes: 8, Runtime: 3600 + 0.25*float64(i), Class: "comm", Pattern: "RHVD"}
	}
	for range batches { // the first job runs and holds the machine
		d.SubmitBatch(specs)
		clk.Advance(1234567 * time.Microsecond)
	}
	var out []byte // the writer's buffer
	for _, c := range []struct {
		name   string
		render func() ([]byte, error)
	}{
		{"memo", func() ([]byte, error) {
			d.queued.listed.rows = d.queued.listed.rows[:len(d.queued.listed.rows)-since]
			return d.listFrame(&d.queued, d.queue.Jobs())
		}},
		{"fresh", func() (_ []byte, err error) {
			resp := listLocked(d, d.queue.Jobs())
			out, err = appendResponse(out[:0], &resp)
			return out, err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var frame []byte
			var err error
			d.call(func() Response {
				if _, err = d.listFrame(&d.queued, d.queue.Jobs()); err != nil {
					return Response{}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N && err == nil; i++ {
					frame, err = c.render()
				}
				return Response{Ok: true}
			})
			if err != nil || len(frame) < batches*since*64 {
				b.Fatalf("a listing of %d bytes: %v", len(frame), err)
			}
		})
	}
}
