package sim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestEventQueueOrder pushes random events with many equal times,
// interleaved with pops, and checks that every event comes out in
// (time, seq) order: the order a sort of the same events gives.
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		var q eventQueue
		var pending, popped []event
		seq := int64(0)
		popOne := func() {
			ev := q.pop()
			popped = append(popped, ev)
			i := slices.IndexFunc(pending, func(p event) bool { return p.seq == ev.seq })
			if i < 0 {
				t.Fatalf("round %d: popped unknown event %+v", round, ev)
			}
			for _, p := range pending {
				if eventBefore(p, ev) {
					t.Fatalf("round %d: popped %+v while %+v was queued", round, ev, p)
				}
			}
			pending = slices.Delete(pending, i, i+1)
		}
		for n := 0; n < 300; n++ {
			ev := event{time: float64(rng.Intn(8)), seq: rng.Int63n(1 << 40), job: n}
			ev.seq = ev.seq<<10 | seq // unique, in no particular push order
			seq++
			q.push(ev)
			pending = append(pending, ev)
			for len(q) > 0 && rng.Intn(3) == 0 {
				popOne()
			}
		}
		// Popping the rest must equal a sort of what was left.
		want := slices.Clone(pending)
		slices.SortFunc(want, func(a, b event) int {
			if eventBefore(a, b) {
				return -1
			}
			return 1
		})
		start := len(popped)
		for len(q) > 0 {
			popOne()
		}
		if got := popped[start:]; !slices.Equal(got, want) {
			t.Fatalf("round %d: draining the queue differs from a sort", round)
		}
	}
}

func eventBefore(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// TestRunContinuousAllocsPerJob pins what a 1,000-job Theta replay
// allocates under each algorithm. Events are popped unboxed, so a job's
// arrival and completion allocate nothing of their own.
func TestRunContinuousAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	topo := topology.Theta()
	trace := workload.Theta.On(topo).Synthesize(1000, 1).
		MustTag(0.3, collective.SinglePattern(collective.RD, 0.5), 2)
	for _, alg := range core.Algorithms {
		cfg := Config{Topology: topo, Algorithm: alg}
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := RunContinuous(cfg, trace); err != nil {
				t.Fatal(err)
			}
		})
		perJob := allocs / float64(len(trace.Jobs))
		t.Logf("%v: %.2f allocs per job", alg, perJob)
		if perJob > 3 {
			t.Errorf("%v: %.2f allocs per job, want <= 3", alg, perJob)
		}
	}
}
