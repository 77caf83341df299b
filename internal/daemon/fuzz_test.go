package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
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
// whatever the daemon says has started. A listing's frame, queue or
// running, which copies every row it can from the listing before, is the
// bytes the whole listing encodes to afresh. A completed job's status names
// the nodes it ran on, even after other jobs reuse them. A snapshot restores
// to the same queue. At the end every node comes back, the clock runs until
// every job has finished, and the history passes the simulator's auditor
// (auditHistory), cancels and faults included. A clock step wakes the
// engine at each completion on the way, as its timer does, so every pass
// runs at an instant the auditor can see.
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
	f.Add([]byte{
		0, 16, 10, 2, // submit 16 nodes for 10 s: runs
		0, 16, 30, 2, // submit 16 nodes: listed as queued
		9, 10, 8, // 10 s later it starts, with no listing since
		4, 0, // fail n0: it is requeued, and its row shows one requeue
	})
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
		ran := map[int64]string{} // hostlists seen running; a requeue forgets one
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
		var ftrace faults.Trace
		cancels := map[int64]cancel{}
		now := func() float64 { return clk.Now().Sub(d.wallBase).Seconds() }
		fault := func(kind faults.Kind, name string, resp Response) {
			if resp.Ok {
				ftrace = append(ftrace, faults.Event{Time: now(), Kind: kind, Node: topo.NodeID(name)})
			}
		}
		in := fuzzBytes(data)
		for len(in) > 0 {
			op := in.next() % 10
			switch op {
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
				running := d.call(func() Response {
					h := d.hist.get(id)
					return Response{Ok: h != nil && h.state == stateRunning}
				}).Ok
				if resp := d.Cancel(id); resp.Ok {
					model = slices.DeleteFunc(model, func(q int64) bool { return q == id })
					cancels[id] = cancel{at: now(), running: running}
				}
			case 4:
				name := node(&in)
				resp := d.Fail(name)
				fault(faults.Fail, name, resp)
				if resp.Ok && resp.ID != 0 {
					delete(ran, resp.ID)
					pos := 0 // the killed job goes ahead of the first larger ID
					for pos < len(model) && model[pos] < resp.ID {
						pos++
					}
					model = slices.Insert(model, pos, resp.ID)
				}
			case 5:
				name := node(&in)
				fault(faults.Drain, name, d.Drain(name))
			case 6:
				name := node(&in)
				fault(faults.Repair, name, d.Resume(name))
			case 7:
				id := int64(in.next() % 40)
				if resp := d.Status(id); resp.Ok != (id >= 1 && id <= int64(admitted)) {
					t.Fatalf("status of job %d with %d admitted: %+v", id, admitted, resp)
				}
			case 8:
				d.Running()
			case 9:
				step(d, clk, clk.Now().Add(time.Duration(in.next()%64)*time.Second), ran)
			}
			// No queue listing follows a running listing or a clock step, so
			// a job can start and then be killed and requeued between two.
			model = checkDaemon(t, d, model, admitted, ran, op)
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

		if d.Info().DownNodes > 0 {
			for n := 0; n < topo.NumNodes(); n++ {
				fault(faults.Repair, topo.NodeName(n), d.Resume(topo.NodeName(n)))
			}
		}
		for rounds := 0; d.Info().FreeNodes < topo.NumNodes() || len(d.Queue().Jobs) > 0; rounds++ {
			if rounds > admitted {
				t.Fatalf("%d rounds after the last op, jobs are still queued or running", rounds)
			}
			step(d, clk, clk.Now().Add(time.Hour), ran)
		}
		if err := auditHistory(t, d, ftrace, cancels); err != nil {
			t.Fatal(err)
		}
	})
}

// step moves the fake clock on to target, waking the engine (Info) at each
// completion on the way, as the engine's timer does. It records in ran the
// hostlist of every job running at a wakeup, since a job may start and end
// within one step.
func step(d *Daemon, clk *fakeClock, target time.Time, ran map[int64]string) {
	for {
		var end float64
		if !d.call(func() Response {
			if len(d.core.Running) == 0 {
				return Response{}
			}
			for _, e := range d.core.Running {
				ran[e.Key] = d.info(e.Key, d.hist.get(e.Key)).NodeList
			}
			end = d.core.Running[0].End
			return Response{Ok: true}
		}).Ok {
			break
		}
		at := d.wallBase.Add(time.Duration(math.Ceil(end * float64(time.Second))))
		if at.After(target) {
			break
		}
		if !at.After(clk.Now()) {
			at = clk.Now().Add(1) // the conversion rounded below the end
		}
		clk.Advance(at.Sub(clk.Now()))
		d.Info()
	}
	clk.Advance(target.Sub(clk.Now()))
}

// checkDaemon drops from the model the jobs the daemon no longer holds as
// queued and, unless op listed or stepped the clock, compares what is left
// with the queue listing; after a listing, queue or running, it compares
// the listing's frame with a fresh render. It returns the model. Every
// admitted job has a slot, and the queue and the running set hold the IDs of
// exactly the slots in those states, once each. It also remembers in ran the
// hostlist of every running job and holds each completed job's status to
// the hostlist it ran on: a job that starts in an op ends after it, so every
// completed job was seen running.
func checkDaemon(t *testing.T, d *Daemon, model []int64, admitted int, ran map[int64]string, op int) []int64 {
	t.Helper()
	list := op < 8
	var listing Response
	if list {
		listing = d.Queue() // first: a listing runs a pass of its own
	}
	checkInvariants(t, d)
	var counts [5]int
	var queueLen, runningLen, completedLen int
	var placed []JobInfo
	d.call(func() Response {
		for id := int64(1); id < d.nextID; id++ {
			h := d.hist.get(id)
			if h == nil {
				t.Errorf("admitted job %d has no history slot", id)
				continue
			}
			counts[h.state]++
			if h.state == stateRunning || h.state == stateCompleted {
				placed = append(placed, d.info(id, h))
			}
		}
		held := map[int64]bool{}
		hold := func(id int64, want jobState) {
			if h := d.hist.get(id); h == nil || h.state != want || held[id] {
				t.Errorf("job %d is held as %s (twice: %v); its slot is %+v", id, want, held[id], h)
			}
			held[id] = true
		}
		for _, id := range d.queue.Jobs() {
			hold(id, stateQueued)
		}
		for _, e := range d.core.Running {
			hold(e.Key, stateRunning)
		}
		// The listing copied what it could from the one before: its bytes
		// are the fresh render's, and its index is the listed jobs'.
		m, ids := &d.queued, d.queue.Jobs()
		if op == 8 {
			m, ids = &d.running, d.runningOrdered()
		}
		if list || op == 8 {
			if want := oracleListing(t, d, ids); !bytes.Equal(m.listed.frame, want) {
				t.Errorf("listing frame\n%s\nfresh render\n%s", m.listed.frame, want)
			}
			checkRows(t, d, m, ids)
		}
		queueLen, runningLen, completedLen = d.queue.Len(), len(d.core.Running), d.completed.Jobs
		model = slices.DeleteFunc(model, func(id int64) bool { return d.hist.get(id).state != stateQueued })
		return Response{Ok: true}
	})
	if t.Failed() {
		t.FailNow()
	}
	if sum := counts[stateQueued] + counts[stateRunning] + counts[stateCompleted] + counts[stateCancelled]; sum != admitted ||
		counts[stateQueued] != queueLen || counts[stateRunning] != runningLen || counts[stateCompleted] != completedLen {
		t.Fatalf("%d admitted; slots %v (none, queued, running, completed, cancelled); queue %d, running set %d, completed %d",
			admitted, counts, queueLen, runningLen, completedLen)
	}
	for _, ji := range placed {
		was, ok := ran[ji.ID]
		switch {
		case ji.State == "running" && ok && was != ji.NodeList:
			t.Fatalf("running job %d moved from %q to %q", ji.ID, was, ji.NodeList)
		case ji.State == "running":
			ran[ji.ID] = ji.NodeList
		case !ok || was != ji.NodeList:
			t.Fatalf("job %d ran on %q (seen: %v), its status after completion says %q", ji.ID, was, ok, ji.NodeList)
		}
	}
	if !list {
		return model
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
// are the input's lines with their terminators stripped, and the wire
// codec decodes each as encoding/json does (checkCodec).
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte(`{"op":"submit","nodes":4,"runtime":60,"class":"comm","pattern":"RD"}` + "\n"))
	f.Add([]byte("{\"op\":\"submit_batch\",\"batch\":[{\"nodes\":1,\"runtime\":1e308}]}\r\n\r\n{\"op\":\"queue\"}"))
	f.Add([]byte("\n\r\n{not json\n{\"op\":7}\n" + `{"op":"status","id":9223372036854775808}`))
	f.Add(bytes.Repeat([]byte("a"), 100))
	// Frames the server and the clients write.
	f.Add([]byte(`{"ok":true,"jobs":[{"id":1,"name":"j","nodes":4,"class":"comm","pattern":"RD","state":"running","after":3,"submit":1.5,"start":1.5,"end":61.5,"exec":60,"baserun":60,"ratio":1.25,"cost":2.5e-7,"nodelist":"n[0-3]","requeues":1}]}` + "\n" +
		`{"ok":true,"batch":[{"id":1},{"error":"runtime must be positive"},{}],"job":{"id":2,"nodes":1,"class":"compute","state":"queued","submit":0}}` + "\n" +
		`{"ok":true,"leaves":[{"switch":"s0","nodes":4,"busy":2,"comm":1,"ratio":0.5}],"machine_nodes":8,"free_nodes":6,"down_nodes":1,"failed_nodes":1,"algorithm":"adaptive","virtual_now":1e21}` + "\n" +
		`{"ok":false,"error":"busy","retryable":true,"id":7,"completed":3,"total_exec_hours":0.1,"total_wait_hours":1e-7,"avg_comm_cost":3,"requeues":2,"lost_node_hours":4,"latency":{"acks":3,"wall_p50_ms":0.5,"wall_p95_ms":1,"wall_p99_ms":2,"starts":3,"wait_p50":1,"wait_p95":2,"wait_p99":3}}` + "\n" +
		`{"op":"submit_batch","nodes":2,"runtime":5,"class":"comm","pattern":"Ring","commshare":0.5,"name":"x","after":1,"batch":[{"nodes":1,"runtime":2,"class":"comm","pattern":"RHVD","commshare":0.7,"name":"y","after":1}],"id":3,"node":"n1"}`))
	// A queue and a status frame with every JobInfo field set, and one whose
	// job objects the straight-line reader does not take (spacing, order).
	f.Add([]byte(`{"ok":true,"jobs":[{"id":9,"name":"a","nodes":3,"class":"comm","pattern":"Ring","state":"completed","after":8,"submit":0.25,"start":1,"end":2,"exec":1.5,"baserun":1,"ratio":1.5,"cost":3e-9,"nodelist":"n[0-2]","requeues":2},{"id":10,"nodes":1,"class":"compute","state":"queued","submit":7}]}` + "\n" +
		`{"ok":true,"job":{"id":5,"name":"b","nodes":2,"class":"comm","pattern":"Binomial","state":"running","after":4,"submit":12.5,"start":13,"end":73,"exec":60,"baserun":48,"ratio":1.25,"cost":0.5,"nodelist":"n[4-5]","requeues":1}}` + "\n" +
		`{"ok":true,"jobs":[{"id":1, "nodes":1,"class":"compute","state":"queued","submit":1},{"nodes":1,"id":2,"class":"compute","state":"queued","submit":1}]}`))
	// Numbers at the edges of the integer fast paths, in integer and float
	// fields: 0, -0, ±(2^53-1), ±2^53, 2^53+1, 15 and 16 digits, 1e15, 1e20,
	// 0.5, and 2^60, whose shortest form is not its integer digits.
	f.Add([]byte(`{"ok":true,"id":999999999999999,"jobs":[{"id":0,"nodes":-0,"class":"comm","state":"queued","submit":-0,"start":9007199254740991,"end":-9007199254740991,"exec":9007199254740992,"baserun":-9007199254740992,"ratio":9007199254740993,"cost":1e15,"requeues":999999999999999},{"id":1234567890123456,"nodes":9007199254740993,"class":"compute","state":"queued","after":-9007199254740992,"submit":1e20,"start":0.5,"end":999999999999999,"exec":1234567890123456,"baserun":100000000000000000000,"ratio":0,"cost":-0.5}],"virtual_now":-0,"total_exec_hours":9007199254740993,"total_wait_hours":1152921504606846976}` + "\n" +
		`{"op":"submit","nodes":999999999999999,"runtime":9007199254740991,"commshare":9999999999999999999}` + "\n" +
		`{"op":"submit","nodes":999999999999999,"runtime":9007199254740991,"commshare":-0,"after":1234567890123456,"id":9007199254740993}` + "\n" +
		`{"ok":true,"jobs":[{"id":1e15,"nodes":1,"class":"comm","state":"queued","submit":0}]}` + "\n" + `{"ok":true,"id":1000000000000000,"virtual_now":0.5}`))
	// The fallbacks: an empty list, nulls, a repeated, a miscased and an
	// unknown key, numbers an integer field or a float64 refuses, -0,
	// escapes, non-ASCII and invalid UTF-8, trailing bytes, odd whitespace.
	f.Add([]byte(`{"op":"submit_batch","batch":[]}` + "\n" + `{"ok":true,"jobs":[],"batch":[],"leaves":[]}` + "\n" +
		`{"op":null,"batch":null,"id":null}` + "\n" + `{"ok":null,"job":null,"jobs":[null],"latency":null}` + "\n" + `null`))
	f.Add([]byte(`{"op":"queue","op":"stats"}` + "\n" + `{"OK":true}` + "\n" + `{"op":"info","extra":1}` + "\n" + `{"ok":true,"jobs":[{"id":1,"id":2}]}`))
	f.Add([]byte(`{"op":"status","id":1e2}` + "\n" + `{"op":"submit","nodes":1.0}` + "\n" + `{"op":"submit","runtime":1e400}` + "\n" + `{"op":"status","id":-0,"runtime":-0}` + "\n" + `{"ok":true,"id":01}`))
	f.Add([]byte(`{"op":"submit","name":"a\"b\\c\/d\nA` + "\\u" + "2028" + `"}` + "\n" + `{"op":"submit","name":"` + string(rune(0x2028)) + `"}` + "\n" + `{"ok":false,"error":"ünï <&>"}` + "\n" + `{"ok":true,"job":{"id":1,"name":"a\\","nodes":1,"class":"compute","state":"queued","submit":0}}` + "\n" + "{\"op\":\"submit\",\"name\":\"\xff\xfe\"}"))
	f.Add([]byte(`{"op":"info"}x` + "\n" + `{"op":"info"} {}` + "\n" + " {\t\"op\" :\r\"info\" , \"id\": 3 } \n" + "{\"op\":\"info\"}\v\n" + `{"ok":tru}`))
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
			checkCodec(t, line, decodeRequest, appendRequest)
			checkCodec(t, line, decodeResponse, appendResponse)
		}
	})
}

// checkCodec holds the wire codec to encoding/json on one frame: decoding
// gives json.Unmarshal's value and error text, the value keeps none of the
// frame's bytes, and it encodes to json.Marshal's bytes and a newline.
func checkCodec[T any](t *testing.T, frame []byte, decode func([]byte, *T) error, encode func([]byte, *T) ([]byte, error)) {
	t.Helper()
	var want, got T
	werr := json.Unmarshal(frame, &want)
	own := bytes.Clone(frame)
	gerr := decode(own, &got)
	clear(own)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q: decoded %+v, %v; encoding/json %+v, %v", got, frame, got, gerr, want, werr)
	}
	if gerr != nil {
		return
	}
	m, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := encode([]byte("prefix"), &got); err != nil || string(b) != "prefix"+string(m)+"\n" {
		t.Fatalf("%T from %q encodes as %q, %v; encoding/json %s", got, frame, b, err, m)
	}
}

// A frame with a NaN or infinite float is refused with encoding/json's
// error, and nothing of it is written.
func TestEncodeRefusesNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, req := range []Request{
			{Op: "submit", Runtime: x},
			{Op: "submit_batch", Batch: []SubmitSpec{{Nodes: 1, Runtime: 1}, {Nodes: 1, Runtime: 1, CommShare: x}}},
		} {
			checkRefused(t, &req, appendRequest)
		}
		for _, resp := range []Response{
			{Ok: true, Jobs: []JobInfo{{ID: 1}, {ID: 2, End: x}}},
			{Ok: true, Leafs: []LeafInfo{{Ratio: x}}},
			{Ok: true, TotalExecHours: 1, AvgCommCost: x, LostNodeHours: math.NaN()},
			{Ok: true, Latency: &LatencyStats{WaitP99: x}},
		} {
			checkRefused(t, &resp, appendResponse)
		}
	}
}

func checkRefused[T any](t *testing.T, v *T, encode func([]byte, *T) ([]byte, error)) {
	t.Helper()
	var w bytes.Buffer
	werr := json.NewEncoder(&w).Encode(v)
	b, err := encode([]byte("prefix"), v)
	if werr == nil || fmt.Sprint(err) != werr.Error() || string(b) != "prefix" || w.Len() != 0 {
		t.Fatalf("%+v: wrote %q, %v; encoding/json %q, %v", *v, b, err, w.Bytes(), werr)
	}
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
