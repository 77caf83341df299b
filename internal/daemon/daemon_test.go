package daemon

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

func newTestDaemon(t *testing.T, alg core.Algorithm, scale float64) *Daemon {
	t.Helper()
	d, err := New(Config{
		Topology:  topology.PaperExample(),
		Algorithm: alg,
		TimeScale: scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestCallWaitsForAcceptedClosure closes the daemon while the engine is
// inside a call's closure. The engine runs the closure to its end, and
// execBatch's closure fills ops the server's writer recycles as soon as the
// call returns, so the call must return the closure's own response, after
// the closure. Run it under -race too: returning early is also a data race
// on what the closure writes.
func TestCallWaitsForAcceptedClosure(t *testing.T) {
	d := newTestDaemon(t, core.Default, 1)
	entered, release := make(chan struct{}), make(chan struct{})
	var filled int64 // written by the engine, read by the caller
	done := make(chan Response, 1)
	go func() {
		resp := d.call(func() Response {
			close(entered)
			<-release
			filled = 7
			return Response{Ok: true, ID: 7}
		})
		resp.ID += filled
		done <- resp
	}()
	<-entered
	d.Close()
	select {
	case resp := <-done:
		t.Fatalf("call returned %+v while its closure was still running", resp)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if resp := <-done; !resp.Ok || resp.ID != 14 {
		t.Fatalf("call returned %+v, want the closure's response", resp)
	}
}

func TestSubmitRunsAndCompletes(t *testing.T) {
	// 1000x time compression: a 100-second job completes in ~100ms wall,
	// long enough that the Status call below still sees it running.
	d := newTestDaemon(t, core.Adaptive, 1000)
	resp := d.Submit(Request{Nodes: 4, Runtime: 100, Class: "comm", Pattern: "RD"})
	if !resp.Ok {
		t.Fatalf("submit failed: %s", resp.Error)
	}
	id := resp.ID
	st := d.Status(id)
	if !st.Ok || st.Job == nil {
		t.Fatalf("status: %+v", st)
	}
	if st.Job.State != "running" {
		t.Fatalf("state = %s, want running", st.Job.State)
	}
	if st.Job.NodeList == "" {
		t.Fatal("running job has no node list")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = d.Status(id)
		if st.Job.State == "completed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed: %+v", st.Job)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stats := d.Stats()
	if stats.Completed != 1 {
		t.Fatalf("completed = %d, want 1", stats.Completed)
	}
	info := d.Info()
	if info.FreeNodes != 8 {
		t.Fatalf("free after completion = %d, want 8", info.FreeNodes)
	}
}

func TestQueueingAndBackfill(t *testing.T) {
	d := newTestDaemon(t, core.Default, 100)
	// Fill the machine with a long job.
	long := d.Submit(Request{Nodes: 8, Runtime: 30, Class: "compute"})
	if !long.Ok {
		t.Fatal(long.Error)
	}
	// A full-machine job must queue.
	blocked := d.Submit(Request{Nodes: 8, Runtime: 5, Class: "compute"})
	if !blocked.Ok {
		t.Fatal(blocked.Error)
	}
	q := d.Queue()
	if len(q.Jobs) != 1 || q.Jobs[0].ID != blocked.ID {
		t.Fatalf("queue = %+v", q.Jobs)
	}
	r := d.Running()
	if len(r.Jobs) != 1 || r.Jobs[0].ID != long.ID {
		t.Fatalf("running = %+v", r.Jobs)
	}
	// Info shows every node busy.
	info := d.Info()
	if info.FreeNodes != 0 {
		t.Fatalf("free = %d, want 0", info.FreeNodes)
	}
	if len(info.Leafs) != 2 {
		t.Fatalf("leaves = %d", len(info.Leafs))
	}
}

func TestCancel(t *testing.T) {
	d := newTestDaemon(t, core.Greedy, 100)
	run := d.Submit(Request{Nodes: 8, Runtime: 50, Class: "compute"})
	queued := d.Submit(Request{Nodes: 4, Runtime: 10, Class: "compute"})
	if !run.Ok || !queued.Ok {
		t.Fatal("submissions failed")
	}
	// Cancel the queued job.
	if resp := d.Cancel(queued.ID); !resp.Ok {
		t.Fatalf("cancel queued: %s", resp.Error)
	}
	if st := d.Status(queued.ID); st.Job.State != "cancelled" {
		t.Fatalf("state = %s, want cancelled", st.Job.State)
	}
	// Cancel the running job: nodes free immediately.
	if resp := d.Cancel(run.ID); !resp.Ok {
		t.Fatalf("cancel running: %s", resp.Error)
	}
	if info := d.Info(); info.FreeNodes != 8 {
		t.Fatalf("free = %d, want 8", info.FreeNodes)
	}
	// Double cancel is an error.
	if resp := d.Cancel(run.ID); resp.Ok {
		t.Fatal("double cancel accepted")
	}
	if resp := d.Cancel(999); resp.Ok {
		t.Fatal("cancel of unknown job accepted")
	}
}

// Cancelling a running job that holds every node lets the waiting job
// start at the cancel's instant: the cancel runs its own pass, so the start
// does not wait for the next operation to bring the daemon up to date.
func TestCancelRunningStartsWaitingJobAtCancel(t *testing.T) {
	clk := newFakeClock()
	d := newClockedDaemon(t, clk)
	run := d.Submit(Request{Nodes: 8, Runtime: 100})
	wait := d.Submit(Request{Nodes: 8, Runtime: 50})
	clk.Advance(10 * time.Second)
	if resp := d.Cancel(run.ID); !resp.Ok {
		t.Fatal(resp.Error)
	}
	clk.Advance(5 * time.Second)
	if got := d.Status(wait.ID).Job; got.State != "running" || got.Start != 10 {
		t.Fatalf("waiting job is %s from %v, want running from the cancel at 10", got.State, got.Start)
	}
}

// A node failure runs its own pass, as a cancel does. Job 1 holds all 8
// nodes and dies with node 0; requeued, it needs more nodes than are up,
// so it holds an unreachable reservation while job 2 (7 nodes) starts at
// the failure's instant, not at the next operation.
func TestFailStartsWaitingJobAtFailure(t *testing.T) {
	clk := newFakeClock()
	d := newClockedDaemon(t, clk)
	run := d.Submit(Request{Nodes: 8, Runtime: 100})
	wait := d.Submit(Request{Nodes: 7, Runtime: 50})
	clk.Advance(10 * time.Second)
	if resp := d.Fail(d.cfg.Topology.NodeName(0)); !resp.Ok || resp.ID != run.ID {
		t.Fatalf("fail: %+v, want job %d killed", resp, run.ID)
	}
	clk.Advance(5 * time.Second)
	if got := d.Status(wait.ID).Job; got.State != "running" || got.Start != 10 {
		t.Fatalf("waiting job is %s from %v, want running from the failure at 10", got.State, got.Start)
	}
	if got := d.Status(run.ID).Job; got.State != "queued" || got.Requeues != 1 {
		t.Fatalf("killed job is %s with %d requeues, want queued with 1", got.State, got.Requeues)
	}
}

// A cancelled running job's slot ends at the cancel time, not at the end
// its start planned.
func TestCancelledRunningJobEndsAtCancel(t *testing.T) {
	clk := newFakeClock()
	d := newClockedDaemon(t, clk)
	run := d.Submit(Request{Nodes: 4, Runtime: 100})
	clk.Advance(10 * time.Second)
	if resp := d.Cancel(run.ID); !resp.Ok {
		t.Fatal(resp.Error)
	}
	d.call(func() Response {
		if h := d.hist.get(run.ID); h.state != stateCancelled || h.end != 10 {
			t.Errorf("cancelled job's slot is %s ending at %v, want cancelled at 10", h.state, h.end)
		}
		return Response{Ok: true}
	})
}

func TestSubmitValidation(t *testing.T) {
	clk := newFakeClock()
	d, err := New(Config{Topology: topology.PaperExample(), Algorithm: core.Balanced, TimeScale: 1, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	bad := []Request{
		{Nodes: 0, Runtime: 10},
		{Nodes: 99, Runtime: 10},
		{Nodes: 2, Runtime: 0},
		{Nodes: 2, Runtime: math.NaN()},
		{Nodes: 2, Runtime: math.Inf(1)},
		{Nodes: 2, Runtime: 10, Class: "frobnicate"},
		{Nodes: 2, Runtime: 10, Class: "comm", Pattern: "nope"},
		{Nodes: 2, Runtime: 10, Class: "comm", CommShare: 2},
		{Nodes: 2, Runtime: 10, Class: "comm", CommShare: math.NaN()},
	}
	for i, req := range bad {
		if resp := d.Submit(req); resp.Ok {
			t.Errorf("bad submit %d accepted: %+v", i, req)
		}
	}
	// A job with a NaN end, first in the running set, held back every later
	// completion.
	ok := d.Submit(Request{Nodes: 2, Runtime: 10})
	clk.Advance(100 * time.Second)
	if st := d.Status(ok.ID); st.Job == nil || st.Job.State != "completed" {
		t.Fatalf("valid job after the rejected ones: %+v", st.Job)
	}
	if s := d.Stats(); s.Completed != 1 {
		t.Fatalf("stats.completed = %d, want 1", s.Completed)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := New(Config{Topology: topology.PaperExample(), TimeScale: -1}); err == nil {
		t.Error("negative time scale accepted")
	}
}

func TestServerOverTCP(t *testing.T) {
	d := newTestDaemon(t, core.Adaptive, 1000)
	srv := NewServer(d)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(srv.Close)

	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	id, err := client.Submit(Request{Nodes: 4, Runtime: 1, Class: "comm", Pattern: "RHVD", Name: "allgather"})
	if err != nil {
		t.Fatal(err)
	}
	ji, err := client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if ji.Name != "allgather" || ji.Nodes != 4 || ji.Pattern != "RHVD" {
		t.Fatalf("job info: %+v", ji)
	}
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.MachineNodes != 8 || info.Algorithm != "adaptive" {
		t.Fatalf("info: %+v", info)
	}
	// Wait for completion via polling.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ji, err = client.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if ji.State == "completed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never completed: %+v", ji)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	// A second concurrent client works too.
	c2, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Queue(); err != nil {
		t.Fatal(err)
	}
	c2.Close()

	if err := client.Shutdown(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop after shutdown")
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	d := newTestDaemon(t, core.Default, 1)
	srv := NewServer(d)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)

	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Do(Request{Op: "frob"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// The daemon with many concurrent clients keeps its invariants: all
// submitted jobs eventually complete and the node count balances.
func TestConcurrentClients(t *testing.T) {
	d := newTestDaemon(t, core.Adaptive, 10000)
	srv := NewServer(d)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)

	const clients = 4
	const jobsPerClient = 10
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			client, err := Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for k := 0; k < jobsPerClient; k++ {
				req := Request{Nodes: 1 + (c+k)%4, Runtime: 2 + float64(k),
					Class: []string{"comm", "compute"}[k%2], Pattern: "RD"}
				if _, err := client.Submit(req); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats := d.Stats()
		if stats.Completed == clients*jobsPerClient {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs completed", stats.Completed, clients*jobsPerClient)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if info := d.Info(); info.FreeNodes != 8 {
		t.Fatalf("free = %d after all jobs, want 8", info.FreeNodes)
	}
}

func TestDrainAndResume(t *testing.T) {
	d := newTestDaemon(t, core.Default, 100)
	// Drain an entire leaf (n0-n3): a 5-node job must avoid it... but the
	// 8-node machine only has 4 left, so a 5-node job queues.
	for _, n := range []string{"n0", "n1", "n2", "n3"} {
		if resp := d.Drain(n); !resp.Ok {
			t.Fatalf("drain %s: %s", n, resp.Error)
		}
	}
	info := d.Info()
	if info.FreeNodes != 4 || info.DownNodes != 4 {
		t.Fatalf("info after drain: free %d down %d", info.FreeNodes, info.DownNodes)
	}
	blocked := d.Submit(Request{Nodes: 5, Runtime: 50, Class: "compute"})
	if !blocked.Ok {
		t.Fatal(blocked.Error)
	}
	if st := d.Status(blocked.ID); st.Job.State != "queued" {
		t.Fatalf("state = %s, want queued (capacity drained)", st.Job.State)
	}
	// A 4-node job runs on the healthy leaf only.
	small := d.Submit(Request{Nodes: 4, Runtime: 50, Class: "compute"})
	if !small.Ok {
		t.Fatal(small.Error)
	}
	st := d.Status(small.ID)
	if st.Job.State != "running" || st.Job.NodeList != "n[4-7]" {
		t.Fatalf("small job: %+v", st.Job)
	}
	// Resuming the drained leaf lets the queued job start.
	for _, n := range []string{"n0", "n1", "n2", "n3"} {
		if resp := d.Resume(n); !resp.Ok {
			t.Fatalf("resume %s: %s", n, resp.Error)
		}
	}
	if st := d.Status(blocked.ID); st.Job.State == "queued" {
		// The queued job needs 5 nodes but only 4 are free (small holds
		// n4-n7): still queued, correctly.
		if free := d.Info().FreeNodes; free != 4 {
			t.Fatalf("free = %d, want 4", free)
		}
	}
	if resp := d.Drain("bogus"); resp.Ok {
		t.Fatal("unknown node drained")
	}
	if resp := d.Resume("bogus"); resp.Ok {
		t.Fatal("unknown node resumed")
	}
}

// TestDependencyAfter steps a fake clock, so no state depends on how fast
// the test runs: a dependant holds while its dependency runs, a later job
// passes it, and it starts when the dependency completes.
func TestDependencyAfter(t *testing.T) {
	clk := newFakeClock()
	d, err := New(Config{Topology: topology.PaperExample(), Algorithm: core.Default, TimeScale: 1, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	state := func(id int64, want string) {
		t.Helper()
		if st := d.Status(id); st.Job == nil || st.Job.State != want {
			t.Fatalf("job %d: %+v, want %s", id, st.Job, want)
		}
	}
	// A short job, then a dependant that must wait for it even though the
	// machine is mostly free.
	first := d.Submit(Request{Nodes: 2, Runtime: 1, Class: "compute", Name: "first"})
	if !first.Ok {
		t.Fatal(first.Error)
	}
	dep := d.Submit(Request{Nodes: 2, Runtime: 1, Class: "compute", Name: "second", After: first.ID})
	if !dep.Ok {
		t.Fatal(dep.Error)
	}
	state(first.ID, "running")
	state(dep.ID, "queued")
	// An independent job passes the held dependant.
	indep := d.Submit(Request{Nodes: 2, Runtime: 1, Class: "compute", Name: "bystander"})
	if !indep.Ok {
		t.Fatal(indep.Error)
	}
	state(indep.ID, "running")
	state(dep.ID, "queued")
	clk.Advance(time.Second)
	state(first.ID, "completed")
	state(dep.ID, "running")
	clk.Advance(time.Second)
	state(dep.ID, "completed")
	// Unknown dependency rejected.
	if resp := d.Submit(Request{Nodes: 1, Runtime: 1, Class: "compute", After: 999}); resp.Ok {
		t.Fatal("unknown dependency accepted")
	}
}

func TestDependencySurvivesRestore(t *testing.T) {
	cfg := Config{Topology: topology.PaperExample(), TimeScale: 100}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	long := d.Submit(Request{Nodes: 8, Runtime: 60, Class: "compute"})
	dep := d.Submit(Request{Nodes: 2, Runtime: 1, Class: "compute", After: long.ID})
	if !long.Ok || !dep.Ok {
		t.Fatal("submissions failed")
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
	st := d2.Status(dep.ID)
	if st.Job.After != long.ID || st.Job.State != "queued" {
		t.Fatalf("restored dependant: %+v", st.Job)
	}
	// Cancelling the dependency releases the dependant (afterany).
	if resp := d2.Cancel(long.ID); !resp.Ok {
		t.Fatal(resp.Error)
	}
	waitState(t, d2, dep.ID, "completed")
}

// TestFinishedJobRetainedBytes bounds what a finished job leaves in the heap:
// 20k 128-node Theta jobs run to completion through the direct API on a fake
// clock, and the heap still live after a collection is divided by the jobs.
// Measured on linux/amd64, go1.24: 1432 B per job while records kept a
// rank-ordered node list and stats kept every JobResult, 420 B with the
// allocation's leaf masks and a running sum, 189 B with a pointer-free
// history slot and a mask copy in the arena. The bound leaves about 30 %.
func TestFinishedJobRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes the heap; run without -race for the bound")
	}
	const jobs, wide, bound = 20000, 128, 245
	topo := topology.Theta()
	live := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties the pools' victim caches
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	base := live()
	clk := newFakeClock()
	d, err := New(Config{Topology: topo, Algorithm: core.Adaptive, TimeScale: 1, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	batch := make([]SubmitSpec, topo.NumNodes()/wide) // a machine's worth
	for i := range batch {
		batch[i] = SubmitSpec{Nodes: wide, Runtime: 10}
	}
	for done := 0; done < jobs; done += len(batch) {
		batch = batch[:min(len(batch), jobs-done)]
		if resp := d.SubmitBatch(batch); !resp.Ok || resp.Batch[len(batch)-1].Error != "" {
			t.Fatalf("submit_batch: %+v", resp)
		}
		clk.Advance(10 * time.Second)
	}
	if s := d.Stats(); s.Completed != jobs {
		t.Fatalf("%d of %d jobs completed", s.Completed, jobs)
	}
	perJob := float64(live()-base) / jobs
	runtime.KeepAlive(d)
	t.Logf("%.0f B retained per finished job", perJob)
	if perJob > bound {
		t.Errorf("%.0f B retained per finished %d-node job, want <= %d", perJob, wide, bound)
	}
}
