package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// priceCold prices blocks over nodes on a fresh scratch; ok is false for a
// list the run view rejects.
func priceCold(st *cluster.State, nodes []int, blocks []collective.BlockStep, mode Mode, overlay bool) (cost float64, ok bool, err error) {
	lay := st.Topology().Layout()
	sc := new(Scratch)
	pl := cluster.NewPlacement(nodes)
	if len(nodes) == 0 || !pl.Reduce(lay, &sc.scan) {
		return 0, false, nil
	}
	cost, err = sc.price(st, lay, pl.Runs(), blocks, mode, overlay)
	return cost, true, err
}

// refPrice is costRef under mode, which must succeed.
func refPrice(t testing.TB, st *cluster.State, nodes []int, steps []collective.Step, mode Mode) float64 {
	t.Helper()
	c, err := costRef(st, nodes, steps, mode)
	if err != nil {
		t.Fatalf("%v reference: %v", mode, err)
	}
	return c
}

// blockSources are the two forms pricing reads one schedule in: the
// pattern's own Blocks (closed form where there is one; nil for steps no
// pattern made) and the detector's blocks (collective.Compact), which is
// how a schedule of any shape reaches the walk.
func blockSources(t *testing.T, label string, own []collective.BlockStep, steps []collective.Step) map[string][]collective.BlockStep {
	t.Helper()
	srcs := map[string][]collective.BlockStep{"compacted": collective.Compact(steps)}
	if own != nil {
		srcs["own"] = own
	}
	for name, blocks := range srcs {
		checkExpands(t, label+" ("+name+")", blocks, steps)
	}
	return srcs
}

// checkExpands requires blocks to list exactly steps' pairs, in order, with
// the same repeat steps.
func checkExpands(t *testing.T, label string, blocks []collective.BlockStep, steps []collective.Step) {
	t.Helper()
	got := collective.Expand(blocks)
	if len(got) != len(steps) {
		t.Fatalf("%s: blocks list %d steps, want %d", label, len(got), len(steps))
	}
	var prevGot, prevWant *collective.Pair
	for s, want := range steps {
		if !slices.Equal(got[s].Pairs, want.Pairs) || got[s].MsgSize != want.MsgSize {
			t.Fatalf("%s step %d: blocks expand to %+v, want %+v", label, s, got[s], want)
		}
		if len(want.Pairs) == 0 {
			continue
		}
		if (prevGot == &got[s].Pairs[0]) != (prevWant == &want.Pairs[0]) {
			t.Fatalf("%s step %d: repeat marker differs", label, s)
		}
		prevGot, prevWant = &got[s].Pairs[0], &want.Pairs[0]
	}
}

// compileReach counts which shapes of the breakpoint walk a test's inputs
// exercised, so "it passed" cannot mean "it never got there". Everything is
// derived from the blocks and the node list, not from the walk.
type compileReach struct {
	stride1, stride2, single, repeat int // equal-stride blocks by shape (N > 1, N = 1), repeat steps
	multiRep, unequal                int // blocks with Reps > 1, blocks with SA ≠ SB and N > 1
	wholeSkips                       int // repetitions taken together with the one before: a k > 1 update
	unequalPieces                    int // unequal-stride repetitions cut by a run boundary
	backwards                        int // blocks starting in a run behind the one the last block ended in
	splitA, splitB                   int // pieces ended by the A side's run alone / the B side's alone
	own, compacted                   int // pricings per block source
}

// observe classifies one (blocks, node list) input.
func (r *compileReach) observe(lay *topology.Layout, nodes []int, blocks []collective.BlockStep) {
	runOf := make([]int, len(nodes)) // rank -> index of its leaf run
	for i := 1; i < len(nodes); i++ {
		runOf[i] = runOf[i-1]
		if lay.NodeLeaf[nodes[i]] != lay.NodeLeaf[nodes[i-1]] {
			runOf[i]++
		}
	}
	lastA, lastB := 0, 0 // where the previous block left the cursors
	for _, bs := range blocks {
		if bs.Repeat {
			r.repeat++
		}
		for _, k := range bs.Blocks {
			if k.A == k.B && k.SA == k.SB {
				continue // skipped whole
			}
			switch {
			case k.N == 1:
				r.single++
			case k.SA != k.SB:
				r.unequal++
			case k.SA == 1:
				r.stride1++
			case k.SA == 2:
				r.stride2++
			}
			if k.Reps > 1 {
				r.multiRep++
			}
			if runOf[k.A] < runOf[lastA] || runOf[k.B] < runOf[lastB] {
				r.backwards++
			}
			spanA, spanB := k.SA*(k.N-1), k.SB*(k.N-1)
			for u := 0; u < k.Reps; u++ {
				a, b := k.A+k.Outer*u, k.B+k.Outer*u
				whole := runOf[a] == runOf[a+spanA] && runOf[b] == runOf[b+spanB]
				if u > 0 && runOf[a-k.Outer] == runOf[a+spanA] && runOf[b-k.Outer] == runOf[b+spanB] {
					r.wholeSkips++ // this repetition and the one before lie in one run on both sides
				}
				if !whole && k.SA != k.SB {
					r.unequalPieces++
				}
				for t := 1; t < k.N; t++ {
					cutA := runOf[a+k.SA*(t-1)] != runOf[a+k.SA*t]
					cutB := runOf[b+k.SB*(t-1)] != runOf[b+k.SB*t]
					if cutA && !cutB {
						r.splitA++
					}
					if cutB && !cutA {
						r.splitB++
					}
				}
				lastA, lastB = a+spanA, b+spanB
			}
		}
	}
}

// unreached lists the shapes the inputs never produced.
func (r *compileReach) unreached() []string {
	var missing []string
	for name, n := range map[string]int{
		"stride-1 blocks": r.stride1, "stride-2 blocks": r.stride2, "single-pair blocks": r.single,
		"repeat steps": r.repeat, "multi-repetition blocks": r.multiRep, "unequal-stride blocks": r.unequal,
		"whole-repetition skips (k > 1)": r.wholeSkips, "cut unequal-stride repetitions": r.unequalPieces,
		"backward cursor moves at a block start": r.backwards,
		"A-side run splits":                      r.splitA, "B-side run splits": r.splitB,
		"pricings from a pattern's own blocks": r.own, "pricings from compacted blocks": r.compacted,
	} {
		if n == 0 {
			missing = append(missing, name)
		}
	}
	slices.Sort(missing)
	return missing
}

// count records one pricing from the named block source.
func (r *compileReach) count(src string) {
	if src == "own" {
		r.own++
	} else {
		r.compacted++
	}
}

// loadedAround returns an empty machine with resident comm jobs on free
// nodes outside nodes (the first free node of every third leaf, two jobs so
// several leaves see contention), and its reference clone with nodes
// allocated on top as a communication-intensive job: the state an overlay
// pricing of nodes must agree with.
func loadedAround(t testing.TB, topo *topology.Topology, nodes []int) (st, allocated *cluster.State) {
	t.Helper()
	st = cluster.New(topo)
	taken := make(map[int]bool, len(nodes))
	for _, id := range nodes {
		taken[id] = true
	}
	var resident [2][]int
	for l := 0; l < topo.NumLeaves(); l += 3 {
		for _, id := range topo.LeafNodes(l) {
			if !taken[id] {
				resident[l%2] = append(resident[l%2], id)
				break
			}
		}
	}
	for i, rn := range resident {
		if len(rn) == 0 {
			continue
		}
		if err := st.Allocate(cluster.JobID(9000+i), cluster.CommIntensive, rn); err != nil {
			t.Fatal(err)
		}
	}
	allocated = st.CloneAs(true)
	if err := allocated.Allocate(1, cluster.CommIntensive, nodes); err != nil {
		t.Fatal(err)
	}
	return st, allocated
}

// TestPriceMatchesReference holds the walk to the reference loop (costRef)
// bit for bit in every mode, over every pattern, power-of-two and folded
// sizes, and node lists from one run per leaf down to one rank per run,
// each through both block sources. Pricing without the overlay is checked
// against the loop on the same state, with it against the loop on a
// reference clone where the list is allocated for real.
func TestPriceMatchesReference(t *testing.T) {
	small := topology.MustGenerate(topology.Spec{NodesPerLeaf: 16, Fanouts: []int{16, 16}})
	patterns := []collective.Pattern{collective.RD, collective.RHVD, collective.Binomial,
		collective.Ring, collective.Stencil, collective.Alltoall}
	cases := []struct {
		topo *topology.Topology
		n    int
	}{{small, 2}, {small, 3}, {small, 8}, {small, 24}, {small, 100}, {small, 128}}
	if !testing.Short() {
		// The folded sizes are Intrepid job widths (r = 1167 and 3808).
		intrepid := topology.Intrepid()
		cases = append(cases, []struct {
			topo *topology.Topology
			n    int
		}{{small, 1000}, {small, 4096}, {intrepid, 5263}, {intrepid, 12000}}...)
	}
	bits := math.Float64bits
	var reach compileReach
	for _, tc := range cases {
		topo, n := tc.topo, tc.n
		lay := topo.Layout()
		lists := compileLists(topo, n, 5)
		// One rank per run: deal the ranks round-robin over the leaves.
		perRun := make([]int, n)
		for r := range perRun {
			perRun[r] = topo.LeafNodes(r % topo.NumLeaves())[r/topo.NumLeaves()]
		}
		lists["one-rank-per-run"] = perRun
		for shape, nodes := range lists {
			st, allocated := loadedAround(t, topo, nodes)
			for _, p := range patterns {
				if n > 1000 && (p == collective.Alltoall || p == collective.Ring && n > 4096) {
					continue // n−1 steps: millions of reference pairs add time, not shapes
				}
				steps := p.MustSchedule(n)
				own, err := p.Blocks(n)
				if err != nil {
					t.Fatal(err)
				}
				srcs := blockSources(t, fmt.Sprintf("%v/%d", p, n), own, steps)
				for name, blocks := range srcs {
					reach.observe(lay, nodes, blocks)
					reach.count(name)
				}
				for _, mode := range allModes {
					want := map[bool]float64{
						false: refPrice(t, st, nodes, steps, mode),
						true:  refPrice(t, allocated, nodes, steps, mode),
					}
					for name, blocks := range srcs {
						for overlay, w := range want {
							got, ok, err := priceCold(st, nodes, blocks, mode, overlay)
							if err != nil || !ok || bits(got) != bits(w) {
								t.Fatalf("%v/%d/%s (%s) %v overlay=%v: price = %v (ok=%v, err=%v), reference %v",
									p, n, shape, name, mode, overlay, got, ok, err, w)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("reach: %+v", reach)
	for _, name := range reach.unreached() {
		t.Errorf("the inputs never produced %s", name)
	}
}

// TestCompileFallsBackOnRepeatedNodes pins the semantics the run view
// cannot express: the reference loop skips a pair whose two ranks sit on
// one node, which only a list that repeats a node id can produce. Such
// lists must price through the reference loop, bit for bit in every mode,
// wherever the repeat falls relative to segments and runs.
func TestCompileFallsBackOnRepeatedNodes(t *testing.T) {
	st := leafAggState(t)                                  // 8 leaves of 4 nodes; resident comm job on nodes 0, 1, 4
	base := []int{2, 3, 5, 6, 7, 8, 9, 10, 12, 13, 16, 17} // runs of 2, 3, 3, 2, 2 ranks
	// RD and RHVD over 12 ranks fold (0,1) (2,3) (4,5) (6,7) — one stride-2
	// segment — and then pair the survivors 1,3,5,7,8..11.
	cases := []struct {
		name     string
		from, to int // nodes[to] = nodes[from]
	}{
		{"segment start", 0, 1},
		{"segment middle", 4, 5},
		{"across a run boundary", 1, 3}, // survivors 1 (leaf 0) and 3 (leaf 1) pair up
		{"distant ranks", 0, 11},
	}
	for _, p := range []collective.Pattern{collective.RD, collective.RHVD, collective.Ring, collective.Alltoall} {
		steps := p.MustSchedule(len(base))
		blocks, err := p.Blocks(len(base))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			nodes := slices.Clone(base)
			nodes[tc.to] = nodes[tc.from]
			label := fmt.Sprintf("%v, repeat at %s", p, tc.name)
			if _, ok, _ := priceCold(st, nodes, blocks, ModeEffectiveHops, false); ok {
				t.Fatalf("%s: the walk priced a list that repeats node %d", label, nodes[tc.to])
			}
			for _, mode := range allModes {
				want := refPrice(t, st, nodes, steps, mode)
				got, err := JobCost(st, nodes, p, mode)
				if err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: JobCost(%v) = %v, %v; reference %v", label, mode, got, err, want)
				}
			}
		}
	}
}

// TestSegmentRangeErrorParity checks that the walk's range guard rejects a
// rank past the node list as an error in the step where the reference loop
// rejects it, not as an index panic, when it sits inside a block rather
// than at its start: in the stride-2 fold prefix of a non-power-of-two
// schedule, mid-way through a stride-1 block, in a later repetition of a
// multi-repetition block, in an unequal-stride block, and on the A side as
// well as the B side.
func TestSegmentRangeErrorParity(t *testing.T) {
	st := leafAggState(t)
	free := []int{2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19, 20}
	pattern := func(p collective.Pattern, ranks int) ([]collective.Step, []collective.BlockStep) {
		own, err := p.Blocks(ranks)
		if err != nil {
			t.Fatal(err)
		}
		return p.MustSchedule(ranks), own
	}
	custom := func(steps ...[]collective.Pair) ([]collective.Step, []collective.BlockStep) {
		out := make([]collective.Step, len(steps))
		for i, pairs := range steps {
			out[i] = collective.Step{Pairs: pairs, MsgSize: 1}
		}
		return out, nil
	}
	type schedule struct {
		steps []collective.Step
		own   []collective.BlockStep
	}
	sched := func(steps []collective.Step, own []collective.BlockStep) schedule { return schedule{steps, own} }
	cases := []struct {
		name string
		schedule
		nodes int // list length: ranks ≥ nodes are out of range
		want  string
	}{
		// RD over 12 ranks folds (0,1) (2,3) (4,5) (6,7) first.
		{"fold segment, B side", sched(pattern(collective.RD, 12)), 7, "step 0 pair (6,7)"},
		{"fold segment, A side", sched(pattern(collective.RD, 12)), 6, "step 0 pair (6,7)"},
		{"fold segment, first pair", sched(pattern(collective.RD, 12)), 1, "step 0 pair (0,1)"},
		// Its next step pairs the survivors (1,3) (5,7) and (8,9) (10,11):
		// two blocks of two single-pair repetitions.
		{"multi-repetition block, last repetition", sched(pattern(collective.RD, 12)), 10, "step 1 pair (10,11)"},
		// Binomial over 16 ranks: step 3 is the block (0,8) (1,9) ... (7,15).
		{"stride-1 block, middle", sched(pattern(collective.Binomial, 16)), 11, "step 3 pair (3,11)"},
		{"later step, B side only", sched(custom(
			[]collective.Pair{{A: 0, B: 1}, {A: 2, B: 3}},
			[]collective.Pair{{A: 0, B: 2}, {A: 1, B: 3}, {A: 2, B: 4}, {A: 3, B: 5}},
		)), 5, "step 1 pair (3,5)"},
		{"negative rank", sched(custom(
			[]collective.Pair{{A: -2, B: 0}, {A: -1, B: 1}, {A: 0, B: 2}},
		)), 4, "step 0 pair (-2,0)"},
		// A distance-2 butterfly over 16 ranks: four repetitions of two pairs.
		{"multi-repetition block, middle of a repetition", sched(custom(
			[]collective.Pair{{A: 0, B: 1}},
			[]collective.Pair{{A: 0, B: 2}, {A: 1, B: 3}, {A: 4, B: 6}, {A: 5, B: 7}, {A: 8, B: 10}, {A: 9, B: 11}, {A: 12, B: 14}, {A: 13, B: 15}},
		)), 11, "step 1 pair (9,11)"},
		{"multi-repetition block, start of a repetition", sched(custom(
			[]collective.Pair{{A: 0, B: 2}, {A: 1, B: 3}, {A: 4, B: 6}, {A: 5, B: 7}, {A: 8, B: 10}, {A: 9, B: 11}, {A: 12, B: 14}, {A: 13, B: 15}},
		)), 10, "step 0 pair (8,10)"},
		// RD over 12 ranks' distance-4 pairs, strides (2,1), and a (3,1) list
		// whose A side leaves first.
		{"unequal-stride block, B side", sched(custom(
			[]collective.Pair{{A: 0, B: 1}},
			[]collective.Pair{{A: 1, B: 8}, {A: 3, B: 9}, {A: 5, B: 10}, {A: 7, B: 11}},
		)), 10, "step 1 pair (5,10)"},
		{"unequal-stride block, A side", sched(custom(
			[]collective.Pair{{A: 0, B: 1}, {A: 3, B: 2}, {A: 6, B: 3}, {A: 9, B: 4}},
		)), 8, "step 0 pair (9,4)"},
	}
	for _, tc := range cases {
		nodes := free[:tc.nodes]
		_, refErr := costRef(st, nodes, tc.steps, ModeEffectiveHops)
		if refErr == nil || !strings.Contains(refErr.Error(), tc.want) {
			t.Fatalf("%s: reference error %v does not name %s", tc.name, refErr, tc.want)
		}
		step := strings.Join(strings.Fields(tc.want)[:2], " ") + " "
		for name, blocks := range blockSources(t, tc.name, tc.own, tc.steps) {
			for _, mode := range allModes {
				_, _, err := priceCold(st, nodes, blocks, mode, false)
				if err == nil || !strings.Contains(err.Error(), step) || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("%s (%s) %v: price error %v, want an out-of-range error in %s", tc.name, name, mode, err, step)
				}
			}
		}
	}
}

// TestCompileRandomSchedules drives the walk with schedules no pattern
// emits — random pairs, descending and mixed strides, self pairs, ranks
// in either order — compacted into blocks, against random node lists on a
// loaded state, and holds every mode to the reference loop on the steps.
func TestCompileRandomSchedules(t *testing.T) {
	st := leafAggState(t)
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 400; iter++ {
		n := 2 + rng.Intn(24)
		nodes := rng.Perm(st.Topology().NumNodes())[:n]
		if iter%2 == 0 {
			slices.Sort(nodes)
		}
		steps := make([]collective.Step, 1+rng.Intn(4))
		for s := range steps {
			steps[s].MsgSize = float64(1 + s)
			for len(steps[s].Pairs) < rng.Intn(12) {
				a, b, stride := rng.Intn(n), rng.Intn(n), rng.Intn(4)-1
				for k := rng.Intn(5); k >= 0 && a >= 0 && b >= 0 && a < n && b < n; k-- {
					steps[s].Pairs = append(steps[s].Pairs, collective.Pair{A: a, B: b})
					a, b = a+stride, b+stride
				}
			}
		}
		blocks := blockSources(t, fmt.Sprintf("iter %d", iter), nil, steps)["compacted"]
		for _, mode := range allModes {
			want := refPrice(t, st, nodes, steps, mode)
			got, ok, err := priceCold(st, nodes, blocks, mode, false)
			if err != nil || !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("iter %d %v: price = %v (ok=%v, err=%v), reference %v\nnodes %v\nsteps %+v",
					iter, mode, got, ok, err, want, nodes, steps)
			}
		}
	}
}
