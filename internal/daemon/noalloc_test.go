package daemon

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/collective"
)

// TestNoAllocServingPaths is the runtime gate of the three-gate
// zero-alloc contract for the serving hot path (the AST analyzer and the
// escape-diagnostic script are the other two): once warm, frame reading
// and latency recording allocate nothing per op.
func TestNoAllocServingPaths(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the pin")
	}

	t.Run("readFrame", func(t *testing.T) {
		data := []byte(`{"op":"submit","nodes":4,"runtime":60,"class":"comm"}` + "\n")
		sr := bytes.NewReader(data)
		br := bufio.NewReader(sr)
		buf := make([]byte, 0, len(data))
		allocs := testing.AllocsPerRun(1000, func() {
			sr.Reset(data)
			br.Reset(sr)
			line, err := readFrame(br, buf)
			if err != nil || len(line) == 0 {
				t.Fatalf("frame: %q, %v", line, err)
			}
			buf = line
		})
		if allocs != 0 {
			t.Fatalf("warm readFrame allocates %.1f/op, want 0", allocs)
		}
	})

	// A 64-job queue listing, and a 16-spec submit_batch shaped like the
	// bench's: 90 % comm, no names.
	clk := newFakeClock()
	d := newClockedDaemon(t, clk)
	d.Submit(Request{Nodes: 8, Runtime: 1e4})
	specs := identityTrace(64, 3)
	for i := range specs {
		specs[i].Nodes = 1 + i%8
	}
	d.SubmitBatch(specs)
	listing := d.Queue()
	if len(listing.Jobs) != 64 {
		t.Fatalf("listing of %d jobs, want 64", len(listing.Jobs))
	}
	batch := Request{Op: "submit_batch", Batch: make([]SubmitSpec, 16)}
	for i := range batch.Batch {
		batch.Batch[i] = SubmitSpec{Nodes: 1 + i%8, Runtime: 37.5 * float64(i+1)}
		if i%10 != 9 {
			batch.Batch[i].Class, batch.Batch[i].Pattern, batch.Batch[i].CommShare = "comm", "RHVD", 0.7
		}
	}
	frame, err := appendRequest(nil, &batch)
	if err != nil {
		t.Fatal(err)
	}
	acks := Response{Ok: true, Batch: make([]BatchResult, 16)}
	for i := range acks.Batch {
		acks.Batch[i].ID = int64(100 + i)
	}
	acksFrame, err := appendResponse(nil, &acks)
	if err != nil {
		t.Fatal(err)
	}
	listingFrame, err := appendResponse(nil, &listing)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	var req Request
	var resp Response
	var ji JobInfo
	submit := []byte(`{"op":"submit","nodes":4,"runtime":60,"class":"comm","pattern":"RD"}`)
	job := []byte(`{"id":3,"nodes":4,"class":"comm","pattern":"Binomial","state":"queued","submit":1.5}`)

	for _, c := range []struct {
		name string
		max  float64
		f    func() error
	}{
		{"appendResponse/queue64", 0, func() (err error) { out, err = appendResponse(out[:0], &listing); return }},
		{"appendRequest/batch16", 0, func() (err error) { out, err = appendRequest(out[:0], &batch); return }},
		// Each list once, sized by counting its elements: grown by append,
		// 16 specs or results took 5 allocations (1, 2, 4, 8, 16), and 64
		// jobs 7. A job's name is a string of its own.
		{"decodeRequest/batch16", 1, func() error { return decodeRequest(frame, &req) }},
		{"decodeResponse/batch16", 1, func() error { return decodeResponse(acksFrame, &resp) }},
		{"decodeResponse/queue64", 65, func() error { return decodeResponse(listingFrame, &resp) }},
		// op, class, pattern and state decode to constants.
		{"decode/vocabulary", 0, func() error {
			if err := decodeRequest(submit, &req); err != nil {
				return err
			}
			dec := decoder{b: job}
			if dec.job(&ji); !dec.end() {
				return fmt.Errorf("job not canonical")
			}
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.f(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := c.f(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.max {
				t.Fatalf("%s allocates %.1f/op, want <= %.0f", c.name, allocs, c.max)
			}
		})
	}

	// A queue listing with nothing changed since the last copies every row
	// from it, names included: the frame is its one allocation.
	t.Run("queueFrame/warm", func(t *testing.T) {
		var allocs float64
		var frame []byte
		var err error
		d.call(func() Response {
			allocs = testing.AllocsPerRun(100, func() { frame, err = d.listFrame(&d.queued, d.queue.Jobs()) })
			return Response{Ok: true}
		})
		if err != nil || !bytes.Equal(frame, listingFrame) || allocs != 1 {
			t.Fatalf("a warm listing allocates %.1f/op, want 1; frame equal to the first: %v (%v)", allocs, bytes.Equal(frame, listingFrame), err)
		}
	})

	// So does a running listing: a row is fixed while its job runs. Each
	// row encoded afresh would allocate its node list and its name.
	t.Run("runningFrame/warm", func(t *testing.T) {
		clk := newFakeClock()
		d := newClockedDaemon(t, clk)
		for i := range 4 {
			d.Submit(Request{Nodes: 2, Runtime: 1e4, Class: "comm", Name: fmt.Sprint("r", i)})
		}
		listing := d.Running()
		first, err := appendResponse(nil, &listing)
		if err != nil || len(listing.Jobs) != 4 {
			t.Fatalf("running listing of %d jobs, want 4 (%v)", len(listing.Jobs), err)
		}
		var allocs float64
		var frame []byte
		d.call(func() Response {
			allocs = testing.AllocsPerRun(100, func() { frame, err = d.listFrame(&d.running, d.runningOrdered()) })
			return Response{Ok: true}
		})
		if err != nil || !bytes.Equal(frame, first) || allocs != 1 {
			t.Fatalf("a warm running listing allocates %.1f/op, want 1; frame equal to the first: %v (%v)", allocs, bytes.Equal(frame, first), err)
		}
	})

	// A started job's status or running row, in either state, renders its
	// node list from the slot's masks into the daemon's buffers: the string
	// is its only allocation.
	t.Run("info/started", func(t *testing.T) {
		clk := newFakeClock()
		d := newClockedDaemon(t, clk)
		long, short := d.Submit(Request{Nodes: 5, Runtime: 1e4}), d.Submit(Request{Nodes: 3, Runtime: 1, Class: "comm"})
		clk.Advance(2 * time.Second)
		d.Stats() // completes the short job
		for id, want := range map[int64]string{long.ID: "running", short.ID: "completed"} {
			var ji JobInfo
			var allocs float64
			d.call(func() Response {
				h := d.hist.get(id)
				ji = d.info(id, h)
				allocs = testing.AllocsPerRun(100, func() { ji = d.info(id, h) })
				return Response{Ok: true}
			})
			if ji.State != want || ji.NodeList == "" || allocs > 1 {
				t.Fatalf("%s job %d (%q on %q): its row allocates %.1f/op, want <= 1", want, id, ji.State, ji.NodeList, allocs)
			}
		}
	})

	// Placement's view of a comm job is built in place at every start.
	t.Run("asJob", func(t *testing.T) {
		clk := newFakeClock()
		d := newClockedDaemon(t, clk)
		var allocs float64
		d.call(func() Response {
			id := d.submitLocked(&SubmitSpec{Nodes: 2, Runtime: 1, Class: "comm", Pattern: "RHVD", CommShare: 0.25}, 0).ID
			h := d.hist.get(id)
			if j := h.asJob(id, &d.comm); len(j.Mix.Comms) != 1 || j.Mix.Comms[0] != (collective.Component{Pattern: collective.RHVD, Frac: 0.25}) || j.Mix.ComputeFrac != 0.75 || j.Mix.Validate() != nil {
				t.Errorf("comm job's mix: %+v", j.Mix)
			}
			allocs = testing.AllocsPerRun(100, func() { _ = h.asJob(id, &d.comm) })
			return Response{Ok: true}
		})
		if allocs != 0 {
			t.Fatalf("asJob allocates %.1f/op, want 0", allocs)
		}
	})

	t.Run("latRing", func(t *testing.T) {
		var l latRing
		allocs := testing.AllocsPerRun(1000, func() {
			l.recordAck(1.5)
			l.recordWait(30)
		})
		if allocs != 0 {
			t.Fatalf("latency recording allocates %.1f/op, want 0", allocs)
		}
	})
}
