package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// fuzzBytes hands out the fuzzer's bytes one choice at a time, and zeros
// once they run out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v
}

// spec decodes a submission: mostly valid, now and then too wide, with no
// runtime, of an unknown class or pattern, or waiting on a job that may not
// exist.
func (b *fuzzBytes) spec(machine int) SubmitSpec {
	s := SubmitSpec{Nodes: b.next() % (machine + 2), Runtime: float64(b.next() % 40)}
	flags := b.next()
	switch flags & 3 {
	case 1:
		s.Class, s.Pattern, s.CommShare = "comm", []string{"RD", "RHVD", "Binomial", "Ring", "", "Star"}[(flags>>2)%6], float64(flags>>5)/4
	case 2:
		s.Class = "compute"
	case 3:
		if flags>>2 == 0 {
			s.Class = "gpu"
		}
	}
	if flags&0x80 != 0 {
		s.After = int64(b.next() % 32)
	}
	return s
}

// FuzzDispatch drives a daemon on a fake clock with the ops a client can
// send, decoded from the fuzzer's bytes, and holds it to what must be true
// whatever they are: nothing panics, the cluster's invariants hold, every
// admitted job is in exactly one of queued, running, completed and
// cancelled with the queue and the running set agreeing, and the queue
// listing is the naive model's: a slice of job IDs appended to on submit,
// cut on cancel, inserted into in job-ID order on a requeue, and emptied of
// whatever the daemon says has started. A snapshot restores to the same
// queue.
func FuzzDispatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		0, 9, 20, 2, // submit 9 nodes for 20 s: runs
		0, 9, 30, 2, // submit 9 nodes: the blocked head
		1, 3, 4, 1, // submit 3 nodes, comm RD: backfills
		2, 2, 4, 10, 2, 2, 20, 0x82, 2, // batch: 4 nodes; 2 nodes after job 2
		4, 0, // fail n0: job 1 is killed and requeued ahead of the rest
		9, 5, 3, 2, // 5 s later cancel the head
		5, 3, 6, 3, 7, 1, 8, // drain and resume n3, status of job 1, running
		0, 17, 5, 0, 0, 4, 0, 0, 0, 4, 9, 7, // too wide, no runtime, unknown class
		3, 3, 3, 39, // cancel job 3, which is running, and a job nobody submitted
		9, 40, 3, 1, 3, 1, // 40 s later cancel job 1, twice
	})
	f.Add(bytes.Repeat([]byte{0, 6, 32, 2, 4, 1, 0, 3, 16, 2, 4, 9, 9, 7}, 12)) // a backlog under failing nodes
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 4, Fanouts: []int{2, 2}})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip()
		}
		clk := newFakeClock()
		cfg := Config{Topology: topo, Algorithm: core.Adaptive, TimeScale: 1, Clock: clk.Now}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		var model []int64 // the queue, as job IDs
		admitted := 0
		admit := func(id int64) {
			model = append(model, id)
			admitted++
		}
		node := func(b *fuzzBytes) string {
			if n := b.next() % (topo.NumNodes() + 1); n < topo.NumNodes() {
				return topo.NodeName(n)
			}
			return "nowhere"
		}
		in := fuzzBytes(data)
		for len(in) > 0 {
			switch op := in.next() % 10; op {
			case 0, 1:
				s := in.spec(topo.NumNodes())
				if resp := d.Submit(Request{Nodes: s.Nodes, Runtime: s.Runtime, Class: s.Class,
					Pattern: s.Pattern, CommShare: s.CommShare, After: s.After}); resp.Ok {
					admit(resp.ID)
				}
			case 2:
				specs := make([]SubmitSpec, in.next()%5)
				for i := range specs {
					specs[i] = in.spec(topo.NumNodes())
				}
				resp := d.SubmitBatch(specs)
				if resp.Ok != (len(specs) > 0) || len(resp.Batch) != len(specs) {
					t.Fatalf("submit_batch of %d: %+v", len(specs), resp)
				}
				for _, r := range resp.Batch {
					if r.Error == "" {
						admit(r.ID)
					}
				}
			case 3:
				id := int64(in.next() % 40)
				if resp := d.Cancel(id); resp.Ok {
					model = slices.DeleteFunc(model, func(q int64) bool { return q == id })
				}
			case 4:
				if resp := d.Fail(node(&in)); resp.Ok && resp.ID != 0 {
					pos := 0 // the killed job goes ahead of the first larger ID
					for pos < len(model) && model[pos] < resp.ID {
						pos++
					}
					model = slices.Insert(model, pos, resp.ID)
				}
			case 5:
				d.Drain(node(&in))
			case 6:
				d.Resume(node(&in))
			case 7:
				id := int64(in.next() % 40)
				if resp := d.Status(id); resp.Ok != (id >= 1 && id <= int64(admitted)) {
					t.Fatalf("status of job %d with %d admitted: %+v", id, admitted, resp)
				}
			case 8:
				d.Running()
			case 9:
				clk.Advance(time.Duration(in.next()%64) * time.Second)
			}
			model = checkDaemon(t, d, model, admitted)
		}
		var snap bytes.Buffer
		if err := d.SaveState(&snap); err != nil {
			t.Fatal(err)
		}
		d2, err := Restore(cfg, bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		defer d2.Close()
		if a, b := marshal(t, d.Queue()), marshal(t, d2.Queue()); a != b {
			t.Fatalf("queue after restore %s, before %s", b, a)
		}
		checkInvariants(t, d2)
	})
}

// checkDaemon drops from the model the jobs the daemon no longer holds as
// queued and compares what is left with the queue listing; it returns the
// model.
func checkDaemon(t *testing.T, d *Daemon, model []int64, admitted int) []int64 {
	t.Helper()
	listing := d.Queue() // first: a listing runs a pass of its own
	checkInvariants(t, d)
	var counts [4]int
	var queueLen, runningLen, completedLen int
	d.call(func() Response {
		for _, r := range d.jobs {
			counts[r.state]++
		}
		queueLen, runningLen, completedLen = d.queue.Len(), len(d.core.Running), len(d.completed)
		model = slices.DeleteFunc(model, func(id int64) bool { return d.jobs[id].state != stateQueued })
		return Response{Ok: true}
	})
	if sum := counts[0] + counts[1] + counts[2] + counts[3]; sum != admitted ||
		counts[stateQueued] != queueLen || counts[stateRunning] != runningLen || counts[stateCompleted] != completedLen {
		t.Fatalf("%d admitted; records %v (queued, running, completed, cancelled); queue %d, running set %d, history %d",
			admitted, counts, queueLen, runningLen, completedLen)
	}
	got := make([]int64, len(listing.Jobs))
	for i, ji := range listing.Jobs {
		if got[i] = ji.ID; ji.State != "queued" {
			t.Fatalf("queue lists job %d, which is %s", ji.ID, ji.State)
		}
	}
	if !listing.Ok || !slices.Equal(got, model) {
		t.Fatalf("queue listing %v, model %v", got, model)
	}
	return model
}

// FuzzReadFrame feeds arbitrary bytes through the server's reader: the
// frames readFrame cuts, through a window far smaller than a frame may be,
// are the input's lines with their terminators stripped, and decoding each
// as a request either fails or yields a request, never a panic.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte(`{"op":"submit","nodes":4,"runtime":60,"class":"comm","pattern":"RD"}` + "\n"))
	f.Add([]byte("{\"op\":\"submit_batch\",\"batch\":[{\"nodes\":1,\"runtime\":1e308}]}\r\n\r\n{\"op\":\"queue\"}"))
	f.Add([]byte("\n\r\n{not json\n{\"op\":7}\n" + `{"op":"status","id":9223372036854775808}`))
	f.Add(bytes.Repeat([]byte("a"), 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		want := bytes.Split(data, []byte("\n"))
		if len(want[len(want)-1]) == 0 { // nothing after the last terminator
			want = want[:len(want)-1]
		}
		br := bufio.NewReaderSize(bytes.NewReader(data), 16)
		var buf []byte
		for i := 0; ; i++ {
			line, err := readFrame(br, buf)
			if err != nil {
				if i != len(want) {
					t.Fatalf("reader stopped (%v) after %d of %d frames", err, i, len(want))
				}
				return
			}
			if i >= len(want) || !bytes.Equal(line, bytes.TrimRight(want[i], "\r")) {
				t.Fatalf("frame %d is %q, input lines %q", i, line, want)
			}
			buf = line
			var req Request
			if err := json.Unmarshal(line, &req); err == nil {
				if _, err := json.Marshal(&req); err != nil {
					t.Fatalf("request decoded from %q does not encode: %v", line, err)
				}
			}
		}
	})
}

// A job whose end is further away than a time.Duration can say must not
// turn the wake-up timer's wait negative: the engine then woke at once,
// found nothing due, re-armed at once and never slept (FuzzReadFrame's
// 1e308 s seed, dispatched).
func TestFarFutureEndDoesNotSpinTheEngine(t *testing.T) {
	clk := newFakeClock()
	var reads atomic.Int64
	d, err := New(Config{Topology: topology.PaperExample(), TimeScale: 1, Clock: func() time.Time {
		reads.Add(1)
		return clk.Now()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if resp := d.Submit(Request{Nodes: 1, Runtime: 1e12}); !resp.Ok {
		t.Fatal(resp.Error)
	}
	before := reads.Load()
	time.Sleep(20 * time.Millisecond)
	if n := reads.Load() - before; n > 2 {
		t.Fatalf("the idle engine read the clock %d times in 20 ms", n)
	}
}
