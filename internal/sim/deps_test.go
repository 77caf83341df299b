package sim

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/workload"
)

func computeJob(id cluster.JobID, submit, runtime float64, nodes int) workload.Job {
	return workload.Job{ID: id, Submit: submit, Runtime: runtime, Nodes: nodes,
		Class: cluster.ComputeIntensive, Mix: collective.Mix{ComputeFrac: 1}}
}

func TestDependencyDelaysStart(t *testing.T) {
	j1 := computeJob(1, 0, 100, 2)
	j2 := computeJob(2, 0, 50, 2)
	j2.DependsOn = 1
	j2.ThinkTime = 25
	trace := workload.Trace{Name: "deps", MachineNodes: 8, Jobs: []workload.Job{j1, j2}}
	res, err := RunContinuous(Config{Topology: topology.PaperExample(), Algorithm: core.Default}, trace)
	if err != nil {
		t.Fatal(err)
	}
	// Job 2 may only start 25 s after job 1 completes at t=100, despite the
	// machine being free the whole time.
	if got := res.Jobs[1].Start; got != 125 {
		t.Fatalf("dependent start = %v, want 125", got)
	}
	if res.Jobs[0].Start != 0 {
		t.Fatalf("dependency start = %v, want 0", res.Jobs[0].Start)
	}
}

func TestDependencyChain(t *testing.T) {
	// A three-job chain: each starts when its predecessor finishes.
	jobs := []workload.Job{
		computeJob(10, 0, 60, 1),
		computeJob(20, 0, 30, 1),
		computeJob(30, 0, 10, 1),
	}
	jobs[1].DependsOn = 10
	jobs[2].DependsOn = 20
	trace := workload.Trace{Name: "chain", MachineNodes: 8, Jobs: jobs}
	res, err := RunContinuous(Config{Topology: topology.PaperExample(), Algorithm: core.Greedy}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[1].Start != 60 || res.Jobs[2].Start != 90 {
		t.Fatalf("chain starts = %v, %v; want 60, 90", res.Jobs[1].Start, res.Jobs[2].Start)
	}
}

func TestDependencyCompletedBeforeArrival(t *testing.T) {
	// The dependant is submitted long after its dependency completed: it
	// starts immediately at its own submit time.
	j1 := computeJob(1, 0, 10, 1)
	j2 := computeJob(2, 500, 10, 1)
	j2.DependsOn = 1
	trace := workload.Trace{Name: "late", MachineNodes: 8, Jobs: []workload.Job{j1, j2}}
	res, err := RunContinuous(Config{Topology: topology.PaperExample(), Algorithm: core.Default}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[1].Start != 500 {
		t.Fatalf("late dependant start = %v, want 500", res.Jobs[1].Start)
	}
	// Think time extends past the submit when the dependency finished
	// recently enough.
	j2.Submit = 5
	j2.ThinkTime = 100
	trace.Jobs = []workload.Job{j1, j2}
	res, err = RunContinuous(Config{Topology: topology.PaperExample(), Algorithm: core.Default}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[1].Start != 110 { // dep ends at 10, +100 think
		t.Fatalf("think-time start = %v, want 110", res.Jobs[1].Start)
	}
	// Submitted after its dependency ended, still within the think time.
	j2.Submit = 50
	trace.Jobs = []workload.Job{j1, j2}
	res, err = RunContinuous(Config{Topology: topology.PaperExample(), Algorithm: core.Default}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[1].Start != 110 {
		t.Fatalf("think-time start after a late submit = %v, want 110", res.Jobs[1].Start)
	}
}

// A job waiting on its dependency keeps its FIFO place but does not block
// the jobs behind it: they pass it while it is ineligible, and once its
// dependency completes it is served ahead of them.
func TestHeldJobDoesNotBlockQueue(t *testing.T) {
	j1 := computeJob(1, 0, 200, 4) // half the machine until 200
	j2 := computeJob(2, 1, 10, 4)
	j2.DependsOn = 1 // waits for the long job
	j3 := computeJob(3, 2, 10, 8)
	j4 := computeJob(4, 3, 10, 4)
	trace := workload.Trace{Name: "held", MachineNodes: 8, Jobs: []workload.Job{j1, j2, j3, j4}}
	res, err := RunContinuous(Config{Topology: topology.PaperExample(), Algorithm: core.Default}, trace)
	if err != nil {
		t.Fatal(err)
	}
	// j3 is the blocked head behind the ineligible j2, with its reservation
	// at 200; j4 backfills past both. At 200 j2 becomes eligible and is
	// queued ahead of j3, so it starts first and j3 waits for it.
	for i, want := range []float64{0, 200, 210, 3} {
		if got := res.Jobs[i].Start; got != want {
			t.Errorf("j%d start = %v, want %v", i+1, got, want)
		}
	}
}

func TestWithDependencies(t *testing.T) {
	trace := workload.Theta.Synthesize(200, 9)
	dep, err := trace.WithDependencies(0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, j := range dep.Jobs {
		if j.DependsOn != 0 {
			n++
		}
	}
	if n < 30 || n > 90 {
		t.Fatalf("%d dependent jobs of 200 at fraction 0.3", n)
	}
	tagged := dep.MustTag(0.9, collective.SinglePattern(collective.RD, 0.7), 2)
	res, err := RunContinuous(Config{Topology: topology.Theta(), Algorithm: core.Adaptive}, tagged)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 200 {
		t.Fatalf("%d results", len(res.Jobs))
	}
	// Every dependant started after its dependency ended.
	byID := make(map[int64]int)
	for i, r := range res.Jobs {
		byID[r.ID] = i
	}
	for i, j := range tagged.Jobs {
		if j.DependsOn == 0 {
			continue
		}
		depEnd := res.Jobs[byID[int64(j.DependsOn)]].End
		if res.Jobs[i].Start < depEnd+j.ThinkTime-1e-9 {
			t.Fatalf("job %d started %v before dependency end %v + think %v",
				j.ID, res.Jobs[i].Start, depEnd, j.ThinkTime)
		}
	}
	if _, err := trace.WithDependencies(1.5, 1); err == nil {
		t.Error("bad fraction accepted")
	}
}

func TestValidateDependencyErrors(t *testing.T) {
	j1 := computeJob(1, 0, 10, 1)
	j2 := computeJob(2, 1, 10, 1)
	j2.DependsOn = 99
	bad := workload.Trace{Name: "x", MachineNodes: 8, Jobs: []workload.Job{j1, j2}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown dependency accepted")
	}
	j2.DependsOn = 2 // self
	bad.Jobs = []workload.Job{j1, j2}
	if err := bad.Validate(); err == nil {
		t.Error("self dependency accepted")
	}
	j2.DependsOn = 1
	j2.ThinkTime = -5
	bad.Jobs = []workload.Job{j1, j2}
	if err := bad.Validate(); err == nil {
		t.Error("negative think time accepted")
	}
	// A repeated job ID is refused with dependencies and without. Two
	// overlapping jobs numbered 7 used to pass Validate and then fail the run
	// halfway, at the second allocation: the cluster state allocates,
	// releases and kills by ID.
	dup1 := computeJob(7, 0, 10, 1)
	dup2 := computeJob(7, 1, 10, 1)
	bad = workload.Trace{Name: "dup", MachineNodes: 8, Jobs: []workload.Job{dup1, dup2}}
	err := bad.Validate()
	if err == nil || err.Error() != "workload: duplicate job ID 7" {
		t.Errorf("duplicate IDs without deps: %v, want the ID named", err)
	}
	if _, runErr := RunContinuous(Config{Topology: topology.PaperExample(), Algorithm: core.Default}, bad); runErr == nil || runErr.Error() != fmt.Sprint(err) {
		t.Errorf("RunContinuous of duplicate IDs: %v, want %v", runErr, err)
	}
	dep := computeJob(9, 2, 10, 1)
	dep.DependsOn = 7
	bad = workload.Trace{Name: "dup", MachineNodes: 8, Jobs: []workload.Job{dup1, dup2, dep}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate IDs with deps accepted")
	}
}
