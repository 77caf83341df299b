package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
	"repro/internal/topology"
)

// benchState is the shared Theta-scale benchmark fixture: a partially
// occupied machine whose leaves have uneven free counts and contention.
func benchState(tb testing.TB) *cluster.State {
	topo := topology.Theta()
	st := cluster.New(topo)
	busy := make([]int, topo.NumLeaves())
	for l := range busy {
		busy[l] = (l * 37) % 300
	}
	occupy(tb, st, busy)
	// A resident communication-intensive job makes the contention factors
	// non-trivial for the cost model.
	comm := make([]int, 0, 128)
	for l := 0; l < topo.NumLeaves(); l++ {
		ids := topo.LeafNodes(l)
		comm = append(comm, ids[len(ids)-1], ids[len(ids)-2])
	}
	if err := st.Allocate(1000001, cluster.CommIntensive, comm); err != nil {
		tb.Fatal(err)
	}
	return st
}

// benchSelect runs one selector with "opt" (fast paths) and "ref"
// (reference SwitchFree recount + uncached cost loops) sub-benchmarks, the
// speedup pair the committed BENCH_*.json tracks.
func benchSelect(b *testing.B, a Algorithm) {
	benchSelectWith(b, MustNew(a))
}

func benchSelectWith(b *testing.B, sel Selector) {
	st := benchState(b)
	req := Request{Job: 1, Nodes: 512, Class: cluster.CommIntensive, Pattern: collective.RD}
	for _, mode := range []struct {
		name string
		st   *cluster.State
	}{{"opt", st}, {"ref", st.CloneAs(true)}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(mode.st, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSelectDefault(b *testing.B)  { benchSelect(b, Default) }
func BenchmarkSelectGreedy(b *testing.B)   { benchSelect(b, Greedy) }
func BenchmarkSelectBalanced(b *testing.B) { benchSelect(b, Balanced) }
func BenchmarkSelectAdaptive(b *testing.B) { benchSelect(b, Adaptive) }

// benchSelectAnneal measures the annealing selector at a given
// evaluated-candidates budget, with the same opt/ref speedup pair as the
// other selectors (the ref half runs the whole search against the
// uncached reference counters — the engine reads CommShareSlow there).
func benchSelectAnneal(b *testing.B, budget int) {
	sel, err := NewWith(Anneal, Options{AnnealBudget: budget})
	if err != nil {
		b.Fatal(err)
	}
	benchSelectWith(b, sel)
}

func BenchmarkSelectAnneal64(b *testing.B)  { benchSelectAnneal(b, 64) }
func BenchmarkSelectAnneal256(b *testing.B) { benchSelectAnneal(b, 256) }

// intrepidState is Intrepid loaded the way costmodel's
// BenchmarkPrice/selector fixture loads it for a job of n ranks: every
// leaf busy on a random prefix, to half on average or as far as leaves room
// for the job.
func intrepidState(tb testing.TB, n int) *cluster.State {
	topo := topology.Intrepid()
	st := cluster.New(topo)
	rng := randNew(int64(n) + 1)
	load := min(0.5, 0.8*(1-float64(n)/float64(topo.NumNodes())))
	busy := make([]int, topo.NumLeaves())
	for l := range busy {
		busy[l] = rng.Intn(int(2*load*float64(topo.LeafSize(l))) + 1)
	}
	occupy(tb, st, busy)
	return st
}

// BenchmarkPlaceIntrepid is the selection of a wide communication-intensive
// job as the replays run it: Place, which splits leaf free counts into
// free-rank runs and, for adaptive, validates and prices two candidates by
// their runs. Nothing in it is proportional to the job's nodes: B/op is the
// run slice.
func BenchmarkPlaceIntrepid(b *testing.B) {
	for _, a := range Algorithms {
		for _, n := range []int{4096, 32768} {
			b.Run(fmt.Sprintf("%v/%d", a, n), func(b *testing.B) {
				st, sel := intrepidState(b, n), MustNew(a)
				req := Request{Job: 1, Nodes: n, Class: cluster.CommIntensive, Pattern: collective.RD}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if pl, err := Place(sel, st, req); err != nil || pl.Len() != n {
						b.Fatal(pl.Len(), err)
					}
				}
			})
		}
	}
}

// TestSelectAllocations pins the selector fast paths: Place allocates one
// slice, the placement's runs and free ranks together, and Select one more,
// the node list it lists them into. The leaf snapshot, sort, take counters
// and run buffers all live in the pooled scratch.
func TestSelectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches at random; pin measured without -race")
	}
	st := benchState(t)
	for _, a := range []Algorithm{Default, Greedy, Balanced, BalancedNoPow2} {
		sel := MustNew(a)
		for _, class := range []cluster.Class{cluster.CommIntensive, cluster.ComputeIntensive} {
			req := Request{Job: 1, Nodes: 511, Class: class, Pattern: collective.RD}
			// Warm the scratch pool outside the measured runs.
			if _, err := sel.Select(st, req); err != nil {
				t.Fatalf("%v/%v: %v", a, class, err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := Place(sel, st, req); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("%v/%v: %.1f allocs per Place, want <= 1 (the runs)", a, class, allocs)
			}
			allocs = testing.AllocsPerRun(50, func() {
				if _, err := sel.Select(st, req); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Errorf("%v/%v: %.1f allocs per Select, want <= 2 (the runs and the node list)", a, class, allocs)
			}
		}
	}
}

// TestAdaptiveSelectAllocations pins the adaptive selector to three heap
// allocations per call: the greedy and balanced candidates' runs and the
// winner's node list. Everything else — candidate validation, the overlay
// comm counters, the leaf-pair hops values — lives in pooled scratch, so a
// regression here means PlacementCostMode started allocating again. Both
// candidates are priced on the caller's goroutine: no call leaves one behind.
func TestAdaptiveSelectAllocations(t *testing.T) {
	st := benchState(t)
	if !costmodel.CandidateCostReadOnly(st) {
		t.Fatal("benchmark fixture should take the read-only candidate path")
	}
	sel := MustNew(Adaptive)
	for _, class := range []cluster.Class{cluster.CommIntensive, cluster.ComputeIntensive} {
		req := Request{Job: 1, Nodes: 511, Class: class, Pattern: collective.RD}
		// Warm the scratch pools outside the measured runs.
		if _, err := sel.Select(st, req); err != nil {
			t.Fatalf("%v: %v", class, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := sel.Select(st, req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 && !raceEnabled { // under the race detector sync.Pool drops scratches at random
			t.Errorf("%v: %.1f allocs per adaptive Select, want <= 3 (two candidates' runs, the winner's list)", class, allocs)
		}
		before := runtime.NumGoroutine()
		for i := 0; i < 1000; i++ {
			if _, err := Place(sel, st, req); err != nil {
				t.Fatal(err)
			}
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%v: %d goroutines before 1,000 adaptive Place calls, %d after", class, before, after)
		}
	}
}

// TestBalancedSecondPassAvoidsFirstPassNodes pins the second pass's free
// ranks: it carries on after what the power-of-two pass took on a leaf and
// never duplicates a node, across repeated reuses of the pooled scratch.
func TestBalancedSecondPassAvoidsFirstPassNodes(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 7, Fanouts: []int{3}})
	st := cluster.New(topo)
	occupy(t, st, []int{1, 2, 4})
	sel := MustNew(Balanced)
	for round := 0; round < 5; round++ {
		nodes, err := sel.Select(st, Request{Job: 1, Nodes: 11, Class: cluster.CommIntensive})
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) != 11 {
			t.Fatalf("round %d: got %d nodes, want 11", round, len(nodes))
		}
		seen := map[int]bool{}
		for _, id := range nodes {
			if seen[id] {
				t.Fatalf("round %d: node %d selected twice in %v", round, id, nodes)
			}
			seen[id] = true
		}
	}
}
