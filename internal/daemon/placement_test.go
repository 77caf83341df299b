package daemon

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/topology"
)

// drainingPlacer is the built-in selector with a node state change
// serviced right after one job's selection: the free-rank placement it
// returns is bound to a generation that is gone by the time it is priced
// or committed.
type drainingPlacer struct {
	core.Selector
	job   cluster.JobID
	node  int
	fail  bool
	fired bool
}

func (s *drainingPlacer) Place(st *cluster.State, req core.Request, sc *core.Scratch) (cluster.Placement, error) {
	pl, _, err := core.Place(s.Selector, st, req, sc)
	if err == nil && req.Job == s.job && !s.fired {
		s.fired = true
		if s.fail {
			_, err = st.Fail(s.node)
		} else {
			err = st.Drain(s.node)
		}
	}
	return pl, err
}

// TestNodeDownBetweenSelectionAndCommitRetries: a Fail or Drain that lands
// between a job's selection and its commit makes the unlisted placement
// stale (cluster.ErrStalePlacement, which is an ErrNodeUnavailable), so the
// pass keeps the job queued (sched.Retry) and the next pass selects again
// on the new state; the job is never dropped. Both classes: a
// communication-intensive job meets the stale placement at pricing, a
// compute-intensive one at the commit.
func TestNodeDownBetweenSelectionAndCommitRetries(t *testing.T) {
	for _, c := range []struct {
		name  string
		class string
		fail  bool
	}{{"drain, comm", "comm", false}, {"fail, comm", "comm", true}, {"drain, compute", "compute", false}, {"fail, compute", "compute", true}} {
		d := newClockedDaemon(t, newFakeClock())
		placer := &drainingPlacer{job: 1, node: 7, fail: c.fail}
		d.call(func() Response {
			placer.Selector = d.selector
			d.selector = placer
			return Response{Ok: true}
		})
		resp := d.Submit(Request{Nodes: 4, Runtime: 100, Class: c.class, Pattern: "RD", CommShare: 0.5})
		if !resp.Ok {
			t.Fatalf("%s: %s", c.name, resp.Error)
		}
		if !placer.fired {
			t.Fatalf("%s: the placer never ran", c.name)
		}
		// Read the record as the submit's pass left it: any request, Status
		// included, runs a pass of its own first.
		d.call(func() Response {
			if r := d.hist.get(resp.ID); r.state != stateQueued || strings.Contains(d.hist.name(r), "failed") || d.st.FreeTotal() != 7 {
				t.Errorf("%s: job is %v (%q) with %d nodes free after its placement went stale, want queued for a retry",
					c.name, r.state, d.hist.name(r), d.st.FreeTotal())
			}
			return Response{Ok: true}
		})
		// Any later pass selects again, on the state as it now is.
		if job := d.Status(resp.ID).Job; job.State != "running" || job.NodeList == "" || strings.Contains(job.NodeList, "n7") {
			t.Fatalf("%s: job is %s on %q after the retry, want running clear of n7", c.name, job.State, job.NodeList)
		}
		checkInvariants(t, d)
	}
}

// parentObservables is the SHA-256 of the queue and running listings and
// every job's status that TestObservablesMatchParent collects. It has not
// changed since the commit before placements became free-rank runs
// (830e840): neither listing a placement lazily, nor holding allocations as
// leaf masks, nor records keeping those masks instead of node lists changed
// what an operator is shown.
const parentObservables = "69cec9706fd9bbec08e21ec4eff2302b81a8c2a781f1162203d216bd6a8c1c0c"

// snapshotObservables is the SHA-256 of the test's snapshot. It changed once,
// on purpose, with snapshot version 2: running jobs' node IDs ascending, and
// the completed jobs' running sums in place of their results.
const snapshotObservables = "cd59706f512d0461bb8da655dac6fc4b4512c6b3d0b7cb4bc6d7554ad0f8f3db"

// TestObservablesMatchParent replays a fixed trace on a machine with
// drained and failed nodes and hashes what an operator sees of placements:
// every job's status (sorted NodeList hostlists included), the queue and
// running listings, and separately the snapshot, which must also survive a
// restore → save round trip byte for byte.
func TestObservablesMatchParent(t *testing.T) {
	clk := newFakeClock()
	cfg := Config{
		Topology:  topology.MustGenerate(topology.Spec{NodesPerLeaf: 6, Fanouts: []int{4, 2}}),
		Algorithm: core.Adaptive,
		TimeScale: 1,
		Clock:     clk.Now,
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	for _, n := range []string{"n3", "n20", "n21"} {
		if resp := d.Drain(n); !resp.Ok {
			t.Fatal(resp.Error)
		}
	}
	if resp := d.Fail("n40"); !resp.Ok {
		t.Fatal(resp.Error)
	}
	rng := rand.New(rand.NewSource(7))
	patterns := []string{"RD", "RHVD", "Binomial", "Ring"}
	h := sha256.New()
	for i := 0; i < 60; i++ {
		s := SubmitSpec{Nodes: 1 + rng.Intn(14), Runtime: 5 + 60*rng.Float64(), Name: fmt.Sprintf("job-%d", i)}
		if rng.Intn(3) > 0 {
			s.Class, s.Pattern, s.CommShare = "comm", patterns[rng.Intn(len(patterns))], 0.3+0.5*rng.Float64()
		}
		if resp := d.SubmitBatch([]SubmitSpec{s}); !resp.Ok {
			t.Fatal(resp.Error)
		}
		if i%10 == 9 {
			clk.Advance(15 * time.Second)
		}
		if i == 30 {
			if resp := d.Fail("n9"); !resp.Ok { // kills and requeues whoever runs there
				t.Fatal(resp.Error)
			}
		}
	}
	for _, resp := range []Response{d.Queue(), d.Running()} {
		resp.Latency = nil
		fmt.Fprintln(h, marshal(t, resp))
	}
	running := 0
	for id := int64(1); id <= 60; id++ {
		resp := d.Status(id)
		resp.Latency = nil
		if resp.Job.State == "running" {
			running++
		}
		fmt.Fprintln(h, marshal(t, resp))
	}
	if running < 3 {
		t.Fatalf("only %d jobs running: the trace does not exercise placements", running)
	}
	var snap bytes.Buffer
	if err := d.SaveState(&snap); err != nil {
		t.Fatal(err)
	}

	d2, err := Restore(cfg, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d2.Close)
	var again bytes.Buffer
	if err := d2.SaveState(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Errorf("snapshot changed across restore → save:\n%s\n%s", snap.Bytes(), again.Bytes())
	}
	// Restore commits every running job through list-form Allocate: the masks
	// it builds hold the nodes the run-form commits took, and an operator is
	// shown the same hostlists.
	for id := int64(1); id <= 60; id++ {
		a, b := d.Status(id), d2.Status(id)
		a.Latency, b.Latency = nil, nil
		if a.Job.State == "completed" { // history is not part of a snapshot
			continue
		}
		if marshal(t, a) != marshal(t, b) {
			t.Errorf("job %d after restore: %s, before %s", id, marshal(t, b), marshal(t, a))
		}
		var held, restored []int
		d.call(func() Response {
			if al := d.st.Allocation(cluster.JobID(id)); al != nil {
				held = al.Nodes()
			}
			return Response{Ok: true}
		})
		d2.call(func() Response {
			if al := d2.st.Allocation(cluster.JobID(id)); al != nil {
				restored = al.Nodes()
			}
			return Response{Ok: true}
		})
		if (a.Job.State == "running") != (held != nil) || !slices.Equal(held, restored) {
			t.Errorf("job %d (%s) holds %v, after restore %v", id, a.Job.State, held, restored)
		}
	}
	checkInvariants(t, d2)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != parentObservables {
		t.Errorf("status and listings hash to %s, want %s", got, parentObservables)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(snap.Bytes())); got != snapshotObservables {
		t.Errorf("the snapshot hashes to %s, want %s", got, snapshotObservables)
	}
}
