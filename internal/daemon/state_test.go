package daemon

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

func TestSaveRestoreRoundTrip(t *testing.T) {
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Adaptive, TimeScale: 100}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One running job, one queued job, one drained node, one completion.
	fast := d.Submit(Request{Nodes: 2, Runtime: 0.5, Class: "compute", Name: "done"})
	if !fast.Ok {
		t.Fatal(fast.Error)
	}
	waitState(t, d, fast.ID, "completed")
	if resp := d.Drain("n7"); !resp.Ok {
		t.Fatal(resp.Error)
	}
	long := d.Submit(Request{Nodes: 5, Runtime: 300, Class: "comm", Pattern: "RHVD", Name: "runner"})
	if !long.Ok {
		t.Fatal(long.Error)
	}
	blocked := d.Submit(Request{Nodes: 3, Runtime: 60, Class: "compute", Name: "waiter"})
	if !blocked.Ok {
		t.Fatal(blocked.Error)
	}
	if st := d.Status(blocked.ID); st.Job.State != "queued" {
		t.Fatalf("setup: blocked job is %s", st.Job.State)
	}
	runningBefore := d.Status(long.ID)
	statsBefore := d.Stats()

	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, err := Restore(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d2.Close)

	// Completed stats survived, bit for bit.
	stats := d2.Stats()
	stats.Latency, statsBefore.Latency = nil, nil
	if stats.Completed != 1 || marshal(t, stats) != marshal(t, statsBefore) {
		t.Fatalf("restored stats %s, before %s", marshal(t, stats), marshal(t, statsBefore))
	}
	// The running job kept its allocation.
	after := d2.Status(long.ID)
	if after.Job.State != "running" {
		t.Fatalf("restored job state = %s", after.Job.State)
	}
	if after.Job.NodeList != runningBefore.Job.NodeList {
		t.Fatalf("node list changed: %q vs %q", after.Job.NodeList, runningBefore.Job.NodeList)
	}
	// The queued job is still queued (n7 down, 5 busy: only 2 free < 3).
	if st := d2.Status(blocked.ID); st.Job.State != "queued" {
		t.Fatalf("restored queued job state = %s", st.Job.State)
	}
	// The drained node survived.
	if info := d2.Info(); info.DownNodes != 1 {
		t.Fatalf("restored down nodes = %d, want 1", info.DownNodes)
	}
	// New submissions continue the ID sequence.
	next := d2.Submit(Request{Nodes: 1, Runtime: 10, Class: "compute"})
	if !next.Ok || next.ID <= blocked.ID {
		t.Fatalf("restored next ID = %d (after %d)", next.ID, blocked.ID)
	}
}

// A restored daemon completes a restored running job at its original
// virtual end time.
func TestRestoreCompletesRunningJobs(t *testing.T) {
	cfg := Config{Topology: topology.PaperExample(), TimeScale: 1000}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := d.Submit(Request{Nodes: 4, Runtime: 2, Class: "compute"})
	if !id.Ok {
		t.Fatal(id.Error)
	}
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := Restore(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d2.Close)
	waitState(t, d2, id.ID, "completed")
	if info := d2.Info(); info.FreeNodes != 8 {
		t.Fatalf("free = %d after restored completion", info.FreeNodes)
	}
}

func TestSaveStateFile(t *testing.T) {
	cfg := Config{Topology: topology.PaperExample(), TimeScale: 10}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if resp := d.Submit(Request{Nodes: 2, Runtime: 100, Class: "compute"}); !resp.Ok {
		t.Fatal(resp.Error)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := d.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	d2, err := RestoreFile(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	d2.Close()
	if _, err := RestoreFile(cfg, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing state file accepted")
	}
}

func TestRestoreRejectsBadState(t *testing.T) {
	cfg := Config{Topology: topology.PaperExample()}
	if _, err := Restore(cfg, strings.NewReader("not json")); err == nil {
		t.Error("garbage state accepted")
	}
	if _, err := Restore(cfg, strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := Restore(cfg, strings.NewReader(
		`{"version":2,"down_nodes":["bogus"]}`)); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := Restore(cfg, strings.NewReader(
		`{"version":2,"next_id":2,"running":[{"id":1,"nodes":2,"runtime":10,"class":"weird"}]}`)); err == nil || !strings.Contains(err.Error(), "class") {
		t.Errorf("unknown class accepted (%v)", err)
	}
	if _, err := Restore(cfg, strings.NewReader(
		`{"version":2,"next_id":2,"running":[{"id":1,"nodes":2,"runtime":10,"class":"compute","node_ids":[0,99]}]}`)); err == nil || !strings.Contains(err.Error(), "restoring job 1") {
		t.Errorf("out-of-range restored allocation accepted (%v)", err)
	}
	// Job IDs are dense from 1 and below next_id: a slot exists for no other.
	for _, id := range []string{"0", "-3", "5", "9223372036854775807"} {
		if _, err := Restore(cfg, strings.NewReader(
			`{"version":2,"next_id":5,"queued":[{"id":`+id+`,"nodes":2,"runtime":10,"class":"compute"}]}`)); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("job ID %s restored under next_id 5 (%v)", id, err)
		}
	}
	// A job is validated as a submission is: a runtime that is not positive
	// would end at or before its start, and a share outside [0,1] is refused.
	for _, c := range []struct{ job, want string }{
		{`"runtime":0,"class":"compute"`, "runtime must be positive"},
		{`"runtime":-5,"class":"comm"`, "runtime must be positive"},
		{`"runtime":10,"class":"comm","commshare":1.5`, "commshare 1.5 out of [0,1]"},
		{`"runtime":10,"class":"comm","commshare":-0.2`, "commshare -0.2 out of [0,1]"},
	} {
		if _, err := Restore(cfg, strings.NewReader(
			`{"version":2,"next_id":5,"queued":[{"id":1,"nodes":2,`+c.job+`}]}`)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("job {%s} restored (%v)", c.job, err)
		}
	}
	// A job has one slot: a snapshot that lists it twice is refused.
	if _, err := Restore(cfg, strings.NewReader(
		`{"version":2,"next_id":5,"queued":[{"id":2,"nodes":2,"runtime":10,"class":"compute"},{"id":2,"nodes":2,"runtime":10,"class":"compute"}]}`)); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("job 2 restored twice (%v)", err)
	}
	for _, nodes := range []string{"0", "9", "4294967298"} { // the machine has 8
		if _, err := Restore(cfg, strings.NewReader(
			`{"version":2,"next_id":5,"queued":[{"id":1,"nodes":`+nodes+`,"runtime":10,"class":"compute"}]}`)); err == nil || !strings.Contains(err.Error(), "needs") {
			t.Errorf("a job of %s nodes restored (%v)", nodes, err)
		}
	}
}

func waitState(t *testing.T, d *Daemon, id int64, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := d.Status(id)
		if st.Job != nil && st.Job.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never reached %s: %+v", id, want, st.Job)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A daemon restored under an injected clock resumes at the snapshot's
// virtual time on THAT clock (not the wall clock), and a job due after the
// snapshot completes at its recorded end.
func TestRestoreResumesOnInjectedClock(t *testing.T) {
	clk := newFakeClock()
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Adaptive, TimeScale: 1, Clock: clk.Now}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := d.Submit(Request{Nodes: 4, Runtime: 120, Class: "compute"})
	if !job.Ok {
		t.Fatal(job.Error)
	}
	clk.Advance(100 * time.Second)
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := Restore(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d2.Close)
	if info := d2.Info(); info.VirtualNow != 100 {
		t.Fatalf("restored virtual now = %v, want 100", info.VirtualNow)
	}
	clk.Advance(19 * time.Second)
	if st := d2.Status(job.ID); st.Job.State != "running" || st.Job.End != 120 {
		t.Fatalf("at 119: state %s end %v, want running until 120", st.Job.State, st.Job.End)
	}
	clk.Advance(time.Second)
	if st := d2.Status(job.ID); st.Job.State != "completed" || st.Job.End != 120 {
		t.Fatalf("at 120: state %s end %v, want completed at 120", st.Job.State, st.Job.End)
	}
	if info := d2.Info(); info.VirtualNow != 120 || info.FreeNodes != 8 {
		t.Fatalf("after completion: now %v free %d, want 120 and 8", info.VirtualNow, info.FreeNodes)
	}
}

// restart snapshots d, closes it and returns a daemon restored from the
// snapshot under the same config.
func restart(t *testing.T, d *Daemon, cfg Config) *Daemon {
	t.Helper()
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := Restore(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d2.Close)
	return d2
}

// A dependency on a job that finished before the snapshot is accepted after
// the restart as it was before it (Restore keeps no record of a finished
// job, and every ID below next_id was issued), and the dependant starts;
// IDs never issued are still refused.
func TestRestoreAcceptsDependencyOnFinishedJob(t *testing.T) {
	clk := newFakeClock()
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Adaptive, TimeScale: 1, Clock: clk.Now}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := d.Submit(Request{Nodes: 2, Runtime: 1, Class: "compute"})
	if !done.Ok {
		t.Fatal(done.Error)
	}
	clk.Advance(2 * time.Second)
	if st := d.Status(done.ID); st.Job.State != "completed" {
		t.Fatalf("setup: job is %s", st.Job.State)
	}
	before := d.Submit(Request{Nodes: 1, Runtime: 1, Class: "compute", After: done.ID})
	if !before.Ok {
		t.Fatalf("before the restart: %s", before.Error)
	}
	d2 := restart(t, d, cfg)
	dep := d2.Submit(Request{Nodes: 1, Runtime: 1, Class: "compute", After: done.ID})
	if !dep.Ok {
		t.Fatalf("after the restart: %s", dep.Error)
	}
	if st := d2.Status(dep.ID); st.Job.State != "running" {
		t.Fatalf("dependant is %s, want running", st.Job.State)
	}
	for _, after := range []int64{dep.ID + 1, dep.ID + 100, -1} {
		if resp := d2.Submit(Request{Nodes: 1, Runtime: 1, Class: "compute", After: after}); resp.Ok {
			t.Errorf("dependency on job %d, never issued, accepted", after)
		}
	}
}

// A job requeued before a snapshot finishes after the restart with the fault
// accounting of a twin daemon that never restarted: the same status and the
// same stats, lost node-hours included.
func TestRestoreKeepsFaultAccounting(t *testing.T) {
	run := func(restartAfterKill bool) (status, stats Response) {
		clk := newFakeClock()
		cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Adaptive, TimeScale: 1, Clock: clk.Now}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		job := d.Submit(Request{Nodes: 8, Runtime: 2, Class: "comm"})
		if !job.Ok {
			t.Fatal(job.Error)
		}
		clk.Advance(time.Second) // half-way through the run
		if resp := d.Fail("n0"); !resp.Ok || resp.ID != job.ID {
			t.Fatalf("fail: %+v", resp)
		}
		if restartAfterKill {
			d = restart(t, d, cfg)
		}
		if resp := d.Resume("n0"); !resp.Ok {
			t.Fatal(resp.Error)
		}
		clk.Advance(2 * time.Second)
		status = d.Status(job.ID)
		if status.Job.State != "completed" {
			t.Fatalf("after the re-run: %+v", status.Job)
		}
		stats = d.Stats()
		stats.Latency = nil // acks are the process's, not the snapshot's
		return status, stats
	}
	wantStatus, wantStats := run(false)
	gotStatus, gotStats := run(true)
	// 8 nodes lost the 1 s they had run when n0 failed.
	if wantStatus.Job.Requeues != 1 || wantStats.Completed != 1 || wantStats.Requeues != 1 || wantStats.LostNodeHours != 8.0/3600 {
		t.Fatalf("twin that never restarted: %+v, %+v", wantStatus.Job, wantStats)
	}
	if a, b := marshal(t, gotStatus), marshal(t, wantStatus); a != b {
		t.Errorf("restarted status %s; twin %s", a, b)
	}
	if a, b := marshal(t, gotStats), marshal(t, wantStats); a != b {
		t.Errorf("restarted stats %s; twin %s", a, b)
	}
}
