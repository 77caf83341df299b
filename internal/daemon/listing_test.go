package daemon

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
)

// listLocked is a listing of jobs ids built without a memo: every job's
// JobInfo, in one Response (engine goroutine).
func listLocked(d *Daemon, ids []int64) Response {
	resp := Response{Ok: true, Jobs: make([]JobInfo, 0, len(ids))}
	for _, id := range ids {
		resp.Jobs = append(resp.Jobs, d.info(id, d.hist.get(id)))
	}
	return resp
}

// oracleListing renders the listing of jobs ids afresh: listLocked,
// encoded as the writer encodes a Response (engine goroutine).
func oracleListing(t *testing.T, d *Daemon, ids []int64) []byte {
	resp := listLocked(d, ids)
	b, err := appendResponse(nil, &resp)
	if err != nil {
		t.Errorf("rendering a listing afresh: %v", err)
	}
	return b
}

// checkRows holds memo m's index to its frame and to the jobs it lists:
// one row per job of ids, in order, with the job's ID and requeue count,
// spanning that job's object.
func checkRows(t *testing.T, d *Daemon, m *memo, ids []int64) {
	if len(m.listed.rows) != len(ids) {
		t.Errorf("the memo indexes %d rows, the listing holds %d jobs", len(m.listed.rows), len(ids))
		return
	}
	for i, r := range m.listed.rows {
		row := m.listed.frame[r.off : r.off+r.n]
		if id, h := ids[i], d.hist.get(ids[i]); r.id != id || r.requeues != h.requeues ||
			!bytes.HasPrefix(row, fmt.Appendf(nil, `{"id":%d,`, r.id)) || row[len(row)-1] != '}' {
			t.Errorf("memo row %d (job %d, requeues %d) spans %q; the listing's job %d has requeues %d",
				i, r.id, r.requeues, row, id, h.requeues)
		}
	}
}

// listQueue lists d's queue as the queue op does, holds the frame to the
// fresh render and the memo's index to the frame, and returns the IDs of
// the rows it copied from the last listing. Every row of the last listing
// is marked first, its state written in capitals: a copied row carries the
// mark, which comes off before the comparison, and an encoded one does not.
func listQueue(t *testing.T, d *Daemon) []int64 {
	t.Helper()
	copied := []int64{}
	d.call(func() Response {
		m := &d.queued
		for _, r := range m.listed.rows {
			row := m.listed.frame[r.off : r.off+r.n]
			i := bytes.Index(row, []byte(`"state":"queued"`))
			copy(row[i+len(`"state":"`):], "QUEUED")
		}
		d.tick(d.now())
		frame, err := d.listFrame(m, d.queue.Jobs())
		if err != nil {
			t.Errorf("queue: %v", err)
			return Response{}
		}
		for _, r := range m.listed.rows {
			if bytes.Contains(frame[r.off:r.off+r.n], []byte("QUEUED")) {
				copied = append(copied, r.id)
			}
		}
		frame = bytes.ReplaceAll(frame, []byte(`"QUEUED"`), []byte(`"queued"`))
		if want := oracleListing(t, d, d.queue.Jobs()); !bytes.Equal(frame, want) {
			t.Errorf("queue frame\n%s\nfresh render\n%s", frame, want)
		}
		copy(m.listed.frame, frame)
		checkRows(t, d, m, d.queue.Jobs())
		return Response{Ok: true}
	})
	if t.Failed() {
		t.FailNow()
	}
	return copied
}

// TestQueueListingCopiesUnchangedRows walks the memo through what changes a
// queue: submissions, a cancel mid-queue, a requeue (the job comes back
// with its count bumped, so its old row must not be copied), a start, and
// a restore, whose memo starts empty. Every job is as wide as the machine,
// so nothing starts unless the test lets it.
func TestQueueListingCopiesUnchangedRows(t *testing.T) {
	clk := newFakeClock()
	d := newClockedDaemon(t, clk)
	want := func(copied []int64, ids ...int64) {
		t.Helper()
		if !slices.Equal(copied, ids) {
			t.Fatalf("the listing copied rows %v, want %v", copied, ids)
		}
	}
	submit := func(name string) int64 {
		t.Helper()
		resp := d.Submit(Request{Nodes: 8, Runtime: 100, Class: "comm", Pattern: "RHVD", Name: name})
		if !resp.Ok {
			t.Fatal(resp.Error)
		}
		return resp.ID
	}
	submit("first") // job 1 runs
	for _, name := range []string{"b", "c", "d", "e"} {
		submit(name)
	}
	want(listQueue(t, d))
	want(listQueue(t, d), 2, 3, 4, 5)
	submit("f")
	want(listQueue(t, d), 2, 3, 4, 5)
	if resp := d.Cancel(4); !resp.Ok {
		t.Fatal(resp.Error)
	}
	want(listQueue(t, d), 2, 3, 5, 6)
	// A killed job goes back ahead of the first larger ID; seven nodes
	// cannot start it.
	if resp := d.Fail("n0"); resp.ID != 1 {
		t.Fatalf("fail n0: %+v", resp)
	}
	want(listQueue(t, d), 2, 3, 5, 6)
	want(listQueue(t, d), 1, 2, 3, 5, 6)
	if resp := d.Resume("n0"); !resp.Ok {
		t.Fatal(resp.Error)
	}
	want(listQueue(t, d), 2, 3, 5, 6)
	// Job 2 starts when job 1 ends and is killed before the next listing:
	// back in the queue with the row it was listed with, but for its count.
	clk.Advance(100 * time.Second)
	if st := d.Status(2); st.Job.State != "running" {
		t.Fatalf("job 2: %+v", st.Job)
	}
	if resp := d.Fail("n0"); resp.ID != 2 {
		t.Fatalf("fail n0: %+v", resp)
	}
	want(listQueue(t, d), 3, 5, 6)
	listing := d.Queue()
	if len(listing.Jobs) != 4 || listing.Jobs[0].ID != 2 || listing.Jobs[0].Requeues != 1 {
		t.Fatalf("queue after the second kill: %+v", listing.Jobs)
	}

	before := marshal(t, listing)
	var snap bytes.Buffer
	if err := d.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	d2, err := Restore(Config{Topology: topology.PaperExample(), TimeScale: 1, Clock: clk.Now}, &snap)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	want(listQueue(t, d2))
	if after := marshal(t, d2.Queue()); after != before {
		t.Fatalf("queue after restore %s, before %s", after, before)
	}
	want(listQueue(t, d2), 2, 3, 5, 6)
}

// A snapshot's queue need not be in ID order: it is restored in ID order,
// the order the queue is kept in, so one walk finds every row a listing
// can copy.
func TestQueueListingOutOfIDOrder(t *testing.T) {
	clk := newFakeClock()
	job := func(id int64, state string) string {
		return fmt.Sprintf(`{"id":%d,"name":"j%d","nodes":8,"runtime":100,"class":"compute","state":%q,"submit":%d}`, id, id, state, id)
	}
	snap := `{"version":2,"virtual_now":10,"next_id":8,` +
		`"running":[` + strings.TrimSuffix(job(1, "running"), "}") + `,"start":1,"end":101,"exec":100,"node_ids":[0,1,2,3,4,5,6,7]}],` +
		`"queued":[` + job(7, "queued") + "," + job(3, "queued") + "," + job(5, "queued") + `],"stats":{}}`
	d, err := Restore(Config{Topology: topology.PaperExample(), TimeScale: 1, Clock: clk.Now}, strings.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, c := range []struct {
		cancel int64
		copied []int64
	}{
		{0, []int64{}},        // the memo starts empty
		{0, []int64{3, 5, 7}}, // restored as 3, 5, 7
		{7, []int64{3, 5}},
		{0, []int64{3, 5}},
	} {
		if c.cancel != 0 {
			if resp := d.Cancel(c.cancel); !resp.Ok {
				t.Fatal(resp.Error)
			}
		}
		if copied := listQueue(t, d); !slices.Equal(copied, c.copied) {
			t.Fatalf("after cancelling %d the listing copied %v, want %v", c.cancel, copied, c.copied)
		}
	}
}

// A row that cannot be encoded fails the listing with encoding/json's
// error, and the memo keeps the last listing.
func TestQueueListingRefusesNonFinite(t *testing.T) {
	d := newClockedDaemon(t, newFakeClock())
	d.Submit(Request{Nodes: 8, Runtime: 100}) // runs
	q := d.Submit(Request{Nodes: 8, Runtime: 100})
	d.call(func() Response {
		d.hist.get(q.ID).runtime = math.Inf(1)
		return Response{Ok: true}
	})
	if resp := d.Queue(); resp.Ok || resp.Error != "queue: json: unsupported value: +Inf" {
		t.Fatalf("a listing with an infinite runtime: %+v", resp)
	}
	d.call(func() Response {
		if m := d.queued.listed; len(m.rows) != 0 || m.frame != nil {
			t.Errorf("a failed listing left a memo of %d rows", len(m.rows))
		}
		return Response{Ok: true}
	})
}
