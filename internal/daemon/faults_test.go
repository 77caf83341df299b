package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// checkInvariants runs the cluster self-check on the engine goroutine.
func checkInvariants(t *testing.T, d *Daemon) {
	t.Helper()
	resp := d.call(func() Response {
		if err := d.st.CheckInvariants(); err != nil {
			return Response{Error: err.Error()}
		}
		return Response{Ok: true}
	})
	if !resp.Ok {
		t.Fatalf("cluster invariants: %s", resp.Error)
	}
}

func TestFailKillsRunningJobAndRequeues(t *testing.T) {
	d := newTestDaemon(t, core.Default, 100)
	// An 8-node job holds the whole machine, so any failed node kills it.
	long := d.Submit(Request{Nodes: 8, Runtime: 300, Class: "compute", Name: "whale"})
	if !long.Ok {
		t.Fatal(long.Error)
	}
	waitState(t, d, long.ID, "running")
	resp := d.Fail("n3")
	if !resp.Ok {
		t.Fatal(resp.Error)
	}
	if resp.ID != long.ID {
		t.Fatalf("fail reported victim %d, want %d", resp.ID, long.ID)
	}
	st := d.Status(long.ID)
	if st.Job.State != "queued" {
		t.Fatalf("killed job is %s, want queued (needs 8 nodes, 7 healthy)", st.Job.State)
	}
	if st.Job.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", st.Job.Requeues)
	}
	info := d.Info()
	if info.FailedNodes != 1 || info.DownNodes != 1 || info.FreeNodes != 7 {
		t.Fatalf("info after fail: %+v", info)
	}
	checkInvariants(t, d)
	// Repairing the node lets the job restart; it completes eventually and
	// its requeue statistics reach the completed-job aggregates.
	if resp := d.Resume("n3"); !resp.Ok {
		t.Fatal(resp.Error)
	}
	waitState(t, d, long.ID, "running")
	// Cut the wait short rather than emulating 300 virtual seconds.
	if resp := d.Cancel(long.ID); !resp.Ok {
		t.Fatal(resp.Error)
	}
	checkInvariants(t, d)
}

func TestFailFreeNodeNoVictim(t *testing.T) {
	d := newTestDaemon(t, core.Default, 100)
	resp := d.Fail("n5")
	if !resp.Ok {
		t.Fatal(resp.Error)
	}
	if resp.ID != 0 {
		t.Fatalf("free-node failure reported victim %d", resp.ID)
	}
	if info := d.Info(); info.FailedNodes != 1 || info.FreeNodes != 7 {
		t.Fatalf("info: %+v", info)
	}
	if resp := d.Fail("bogus"); resp.Ok {
		t.Fatal("unknown node failed")
	}
	if resp := d.Resume("n5"); !resp.Ok {
		t.Fatal(resp.Error)
	}
	if info := d.Info(); info.FailedNodes != 0 || info.FreeNodes != 8 {
		t.Fatalf("info after repair: %+v", info)
	}
	checkInvariants(t, d)
}

// TestRequeuedJobStatsReachSummary drives a job through a kill and full
// re-run and checks the requeue/lost-node-hour aggregates surface in
// Stats, wired through metrics.Summarize. It runs on a fake clock: on the
// wall clock the job could finish between being seen running and the kill.
func TestRequeuedJobStatsReachSummary(t *testing.T) {
	clk := newFakeClock()
	d := newClockedDaemon(t, clk)
	job := d.Submit(Request{Nodes: 8, Runtime: 2, Class: "compute"})
	if !job.Ok {
		t.Fatal(job.Error)
	}
	clk.Advance(time.Second) // half-way through the run
	if st := d.Status(job.ID); st.Job == nil || st.Job.State != "running" {
		t.Fatalf("before the kill: %+v", st.Job)
	}
	if resp := d.Fail("n0"); !resp.Ok || resp.ID != job.ID {
		t.Fatalf("fail: %+v", resp)
	}
	if resp := d.Resume("n0"); !resp.Ok {
		t.Fatal(resp.Error)
	}
	clk.Advance(time.Second)
	if st := d.Status(job.ID); st.Job.State != "running" || st.Job.Requeues != 1 {
		t.Fatalf("half-way through the re-run: %+v", st.Job)
	}
	clk.Advance(time.Second)
	if st := d.Status(job.ID); st.Job.State != "completed" {
		t.Fatalf("after the full re-run: %+v", st.Job)
	}
	stats := d.Stats()
	if stats.Requeues != 1 {
		t.Fatalf("stats requeues = %d, want 1", stats.Requeues)
	}
	if stats.LostNodeHours <= 0 {
		t.Fatalf("lost node-hours %v, want the killed first second of 8 nodes", stats.LostNodeHours)
	}
	if st := d.Status(job.ID); st.Job.Requeues != 1 {
		t.Fatalf("completed job requeues = %d, want 1", st.Job.Requeues)
	}
}

// TestMalformedProtocolFrames feeds the server broken and hostile frames
// over a raw connection: every one must produce an error response (or be
// skipped, for blank lines) without killing the connection, and a valid
// request afterwards must still succeed.
func TestMalformedProtocolFrames(t *testing.T) {
	d := newTestDaemon(t, core.Default, 1)
	srv := NewServer(d)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	send := func(line string) map[string]any {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatal(err)
		}
		raw, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("connection died after %q: %v", line, err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("unparseable response to %q: %v", line, err)
		}
		return m
	}
	for _, line := range []string{
		`{not json`,
		`"a bare string"`,
		`{"op":5}`,
		`{}`,
		`{"op":"submit"}`,
		`{"op":"submit","nodes":-3,"runtime":10}`,
		`{"op":"submit","nodes":2,"runtime":-1}`,
		`{"op":"submit","nodes":2,"runtime":5,"class":"quantum"}`,
		`{"op":"status","id":424242}`,
		`{"op":"cancel"}`,
		`{"op":"fail"}`,
		`{"op":"fail","node":"n99"}`,
		`{"op":"drain","node":""}`,
		`{"op":"` + strings.Repeat("x", 2000) + `"}`,
	} {
		m := send(line)
		if ok, _ := m["ok"].(bool); ok {
			t.Fatalf("malformed frame accepted: %q -> %v", line, m)
		}
		if s, _ := m["error"].(string); s == "" {
			t.Fatalf("no error string for %q: %v", line, m)
		}
	}
	// The connection survived all of it.
	if m := send(`{"op":"info"}`); m["ok"] != true {
		t.Fatalf("valid request after garbage failed: %v", m)
	}
	checkInvariants(t, d)
}

// TestAllocationRacedAgainstNodeDown hammers the daemon with concurrent
// submissions while another client fails and repairs nodes. The engine
// serialises the operations, but every interleaving of fail between
// capacity check and start must degrade gracefully: no job may end up
// cancelled, and the machine must return to fully free once the dust
// settles.
func TestAllocationRacedAgainstNodeDown(t *testing.T) {
	d := newTestDaemon(t, core.Adaptive, 10000)
	const jobs = 40
	var wg sync.WaitGroup
	ids := make([]int64, jobs)
	errs := make(chan error, jobs+1)
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp := d.Submit(Request{Nodes: 1 + k%4, Runtime: 1, Class: "compute"})
			if !resp.Ok {
				errs <- fmt.Errorf("submit %d: %s", k, resp.Error)
				return
			}
			ids[k] = resp.ID
		}(k)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		nodes := []string{"n1", "n4", "n6"}
		for round := 0; round < 30; round++ {
			n := nodes[round%len(nodes)]
			if resp := d.Fail(n); !resp.Ok {
				errs <- fmt.Errorf("fail %s: %s", n, resp.Error)
				return
			}
			if resp := d.Resume(n); !resp.Ok {
				errs <- fmt.Errorf("resume %s: %s", n, resp.Error)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, id := range ids {
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := d.Status(id)
			if st.Job == nil {
				t.Fatalf("job %d lost", id)
			}
			if st.Job.State == "completed" {
				break
			}
			if st.Job.State == "cancelled" {
				t.Fatalf("job %d cancelled under node churn: %+v", id, st.Job)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d stuck in %s", id, st.Job.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if info := d.Info(); info.FreeNodes != 8 || info.FailedNodes != 0 {
		t.Fatalf("info after churn: %+v", info)
	}
	checkInvariants(t, d)
}

// TestRestoreDrainedWhileBusySnapshot snapshots a daemon whose running
// job holds a node that was drained after the start — the node is down
// AND allocated — and restores it: the job must keep its exact nodes and
// the drain must survive. (Restore applies running allocations before
// node-down marks; the reverse order rejects the snapshot.)
func TestRestoreDrainedWhileBusySnapshot(t *testing.T) {
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Default, TimeScale: 100}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	long := d.Submit(Request{Nodes: 4, Runtime: 300, Class: "compute"})
	if !long.Ok {
		t.Fatal(long.Error)
	}
	waitState(t, d, long.ID, "running")
	before := d.Status(long.ID)
	// The default selector packed the job onto n0-n3; drain one of its
	// nodes while it runs.
	if resp := d.Drain("n0"); !resp.Ok {
		t.Fatal(resp.Error)
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
	after := d2.Status(long.ID)
	if after.Job.State != "running" || after.Job.NodeList != before.Job.NodeList {
		t.Fatalf("restored job: %+v (was %+v)", after.Job, before.Job)
	}
	if info := d2.Info(); info.DownNodes != 1 || info.FailedNodes != 0 {
		t.Fatalf("restored node state: %+v", info)
	}
	checkInvariants(t, d2)
}

// TestRestoreFailedNodesAndRequeues round-trips failure state: a failed
// node and a killed-and-requeued job survive a restart with their marks
// intact, and repairing the node afterwards restarts the job.
func TestRestoreFailedNodesAndRequeues(t *testing.T) {
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Default, TimeScale: 100}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := d.Submit(Request{Nodes: 8, Runtime: 300, Class: "compute"})
	if !job.Ok {
		t.Fatal(job.Error)
	}
	waitState(t, d, job.ID, "running")
	if resp := d.Fail("n2"); !resp.Ok || resp.ID != job.ID {
		t.Fatalf("fail: %+v", resp)
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
	if info := d2.Info(); info.FailedNodes != 1 || info.DownNodes != 1 {
		t.Fatalf("restored node state: %+v", info)
	}
	st := d2.Status(job.ID)
	if st.Job.State != "queued" || st.Job.Requeues != 1 {
		t.Fatalf("restored job: %+v", st.Job)
	}
	if resp := d2.Resume("n2"); !resp.Ok {
		t.Fatal(resp.Error)
	}
	waitState(t, d2, job.ID, "running")
	checkInvariants(t, d2)
}

// TestRestoreRejectsFailedNodeWithAllocation rejects a hand-corrupted
// snapshot that claims a running job on a failed node.
func TestRestoreRejectsFailedNodeWithAllocation(t *testing.T) {
	cfg := Config{Topology: topology.PaperExample(), Algorithm: core.Default, TimeScale: 100}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := d.Submit(Request{Nodes: 4, Runtime: 300, Class: "compute"})
	if !job.Ok {
		t.Fatal(job.Error)
	}
	waitState(t, d, job.ID, "running")
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	d.Close()
	var ps map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ps); err != nil {
		t.Fatal(err)
	}
	// The default selector started the job on n0-n3; claim n0 failed.
	ps["down_nodes"] = []string{"n0"}
	ps["failed_nodes"] = []string{"n0"}
	corrupt, err := json.Marshal(ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(cfg, bytes.NewReader(corrupt)); err == nil {
		t.Fatal("snapshot with a job running on a failed node accepted")
	}
}
