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

// perPairCompile is the compiler buildLeafSchedule replaced, kept as the
// term-for-term reference: visit every pair of every non-repeat step in
// order, skip pairs on one node, and regroup the rest by leaf pair in
// discovery order. Maps stand in for the pooled scratch.
func perPairCompile(lay *cluster.Layout, nodes []int, steps []collective.Step) (*leafSchedule, error) {
	ls := &leafSchedule{
		lay:    lay,
		sid:    &steps[0],
		nSteps: len(steps),
		off:    make([]int32, len(steps)+1),
		kind:   make([]uint8, len(steps)),
		msg:    make([]float64, len(steps)),
	}
	leafPos := map[int32]int{}
	for _, id := range nodes {
		l := lay.NodeLeaf[id]
		if _, ok := leafPos[l]; !ok {
			leafPos[l] = len(ls.leaves)
			ls.leaves = append(ls.leaves, l)
			ls.counts = append(ls.counts, 0)
		}
		ls.counts[leafPos[l]]++
	}
	pairID := map[[2]int32]int32{}
	var prevPairs *collective.Pair
	for sIdx, step := range steps {
		ls.off[sIdx] = int32(len(ls.ids))
		ls.msg[sIdx] = step.MsgSize
		if len(step.Pairs) == 0 {
			ls.kind[sIdx] = stepEmpty
			continue
		}
		if prevPairs == &step.Pairs[0] {
			ls.kind[sIdx] = stepRepeat
			continue
		}
		prevPairs = &step.Pairs[0]
		stepPos := map[int32]int{}
		for _, p := range step.Pairs {
			if p.A < 0 || p.A >= len(nodes) || p.B < 0 || p.B >= len(nodes) {
				return nil, fmt.Errorf("costmodel: step %d pair (%d,%d) out of range for %d nodes",
					sIdx, p.A, p.B, len(nodes))
			}
			na, nb := nodes[p.A], nodes[p.B]
			if na == nb {
				continue
			}
			lo, hi := lay.NodeLeaf[na], lay.NodeLeaf[nb]
			if lo > hi {
				lo, hi = hi, lo
			}
			id, ok := pairID[[2]int32{lo, hi}]
			if !ok {
				id = int32(len(ls.pairLi))
				pairID[[2]int32{lo, hi}] = id
				ls.pairLi = append(ls.pairLi, lo)
				ls.pairLj = append(ls.pairLj, hi)
			}
			if pos, ok := stepPos[id]; ok {
				ls.w[pos]++
			} else {
				stepPos[id] = len(ls.ids)
				ls.ids = append(ls.ids, id)
				ls.w = append(ls.w, 1)
			}
		}
	}
	ls.off[len(steps)] = int32(len(ls.ids))
	ls.agg = buildSubtreeSchedule(lay, ls)
	return ls, nil
}

// compileCold runs the production compile on a fresh scratch, bypassing
// leafSchedCache; ok is false for a list the run view rejects.
func compileCold(lay *cluster.Layout, nodes []int, steps []collective.Step, memo *memoSchedule) (ls *leafSchedule, ok bool, err error) {
	sc := new(buildScratch)
	pl := cluster.NewPlacement(nodes)
	if !pl.Reduce(lay, &sc.scan) {
		return nil, false, nil
	}
	ls, err = buildLeafSchedule(lay, sc, pl.Runs(), steps, memo)
	return ls, true, err
}

// stepSegments splits a memo entry's flat segment list by step: the
// segments of a non-repeat step are the next ones whose lengths add up to
// its pair count; empty and repeat steps have none.
func stepSegments(t testing.TB, steps []collective.Step, memo *memoSchedule) [][]pairSeg {
	t.Helper()
	out := make([][]pairSeg, len(steps))
	next := 0
	var prevPairs *collective.Pair
	for sIdx, step := range steps {
		if len(step.Pairs) == 0 || prevPairs == &step.Pairs[0] {
			continue
		}
		prevPairs = &step.Pairs[0]
		start := next
		for covered := 0; covered < len(step.Pairs); next++ {
			if next == len(memo.seg) {
				t.Fatalf("step %d: stored segments end %d pairs short", sIdx, len(step.Pairs)-covered)
			}
			covered += int(memo.seg[next].n)
		}
		out[sIdx] = memo.seg[start:next]
	}
	if next != len(memo.seg) {
		t.Fatalf("%d stored segments belong to no step", len(memo.seg)-next)
	}
	return out
}

// compileReach counts which shapes of the run × segment walk a test's
// inputs exercised, so "it passed" cannot mean "it never got there".
type compileReach struct {
	stride1, stride2, single, repeat int // segments by shape (length > 1, length 1), repeat steps
	splitA, splitB                   int // pieces ended by the A side's run alone / the B side's alone
	stored, onTheFly                 int // compiles per segment source
}

// observe classifies one (schedule, node list) input: segment shapes from
// the production segmentsOf, run-boundary splits from the node list's
// leaves directly.
func (r *compileReach) observe(lay *cluster.Layout, nodes []int, steps []collective.Step, segs [][]pairSeg) {
	sameRun := func(x, y int32) bool { // ranks x..y all on one leaf
		for r := x; r < y; r++ {
			if lay.NodeLeaf[nodes[r]] != lay.NodeLeaf[nodes[r+1]] {
				return false
			}
		}
		return true
	}
	var prevPairs *collective.Pair
	for sIdx, step := range steps {
		if len(step.Pairs) > 0 && prevPairs == &step.Pairs[0] {
			r.repeat++
			continue
		}
		if len(step.Pairs) > 0 {
			prevPairs = &step.Pairs[0]
		}
		for _, sg := range segs[sIdx] {
			switch {
			case sg.n == 1:
				r.single++
			case sg.stride == 1:
				r.stride1++
			case sg.stride == 2:
				r.stride2++
			}
			for t := int32(1); t < sg.n; t++ {
				cutA := !sameRun(sg.a+sg.stride*(t-1), sg.a+sg.stride*t)
				cutB := !sameRun(sg.b+sg.stride*(t-1), sg.b+sg.stride*t)
				if cutA && !cutB {
					r.splitA++
				}
				if cutB && !cutA {
					r.splitB++
				}
			}
		}
	}
}

// checkSegments requires segs to be steps cut into maximal affine
// segments: expanding them reproduces every non-repeat step's pairs in
// order, and no segment could have absorbed the pair after it.
func checkSegments(t *testing.T, label string, steps []collective.Step, memo *memoSchedule) [][]pairSeg {
	t.Helper()
	segs := stepSegments(t, steps, memo)
	for sIdx, step := range steps {
		stored := segs[sIdx]
		i := 0
		for _, sg := range stored {
			if sg.n < 1 || sg.stride < 1 {
				t.Fatalf("%s step %d: degenerate segment %+v", label, sIdx, sg)
			}
			for k := int32(0); k < sg.n; k, i = k+1, i+1 {
				want := collective.Pair{A: int(sg.a + sg.stride*k), B: int(sg.b + sg.stride*k)}
				if i >= len(step.Pairs) || step.Pairs[i] != want {
					t.Fatalf("%s step %d: segment %+v expands to %+v at pair %d", label, sIdx, sg, want, i)
				}
			}
			if next := i; sg.n > 1 && next < len(step.Pairs) {
				last := step.Pairs[next-1]
				if step.Pairs[next] == (collective.Pair{A: last.A + int(sg.stride), B: last.B + int(sg.stride)}) {
					t.Fatalf("%s step %d: segment %+v is not maximal", label, sIdx, sg)
				}
			}
		}
		if len(stored) > 0 && i != len(step.Pairs) {
			t.Fatalf("%s step %d: segments cover %d of %d pairs", label, sIdx, i, len(step.Pairs))
		}
	}
	return segs
}

// diffLeafSchedules compares two compiled schedules term for term.
func diffLeafSchedules(got, want *leafSchedule) string {
	switch {
	case !slices.Equal(got.leaves, want.leaves):
		return fmt.Sprintf("leaves %v, want %v", got.leaves, want.leaves)
	case !slices.Equal(got.counts, want.counts):
		return fmt.Sprintf("counts %v, want %v", got.counts, want.counts)
	case !slices.Equal(got.pairLi, want.pairLi) || !slices.Equal(got.pairLj, want.pairLj):
		return "pair table (content or discovery order) differs"
	case !slices.Equal(got.ids, want.ids):
		return "ids differ"
	case !slices.Equal(got.w, want.w):
		return fmt.Sprintf("multiplicities w %v, want %v", got.w, want.w)
	case !slices.Equal(got.off, want.off):
		return fmt.Sprintf("off %v, want %v", got.off, want.off)
	case !slices.Equal(got.kind, want.kind):
		return fmt.Sprintf("kind %v, want %v", got.kind, want.kind)
	case !slices.Equal(got.msg, want.msg):
		return "msg differs"
	case (got.agg != nil) != (want.agg != nil):
		return fmt.Sprintf("agg compiled: %v, want %v", got.agg != nil, want.agg != nil)
	}
	return ""
}

// TestCompileMatchesPerPairReference compares the run × segment compile
// with the per-pair compiler it replaced, term for term, over every
// pattern, power-of-two and other sizes, and node lists from one run per
// leaf down to one rank per run — each through both segment sources.
func TestCompileMatchesPerPairReference(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 16, Fanouts: []int{16, 16}})
	lay := cluster.LayoutOf(topo)
	patterns := []collective.Pattern{collective.RD, collective.RHVD, collective.Binomial,
		collective.Ring, collective.Stencil, collective.Alltoall}
	sizes := []int{2, 3, 8, 24, 100, 128, 1000, 4096}
	if testing.Short() {
		sizes = []int{2, 3, 8, 24, 100, 128}
	}
	var reach compileReach
	aggCompiled := 0
	for _, n := range sizes {
		lists := compileLists(topo, n, 5)
		// One rank per run: deal the ranks round-robin over the leaves.
		perRun := make([]int, n)
		for r := range perRun {
			perRun[r] = topo.LeafNodes(r % topo.NumLeaves())[r/topo.NumLeaves()]
		}
		lists["one-rank-per-run"] = perRun
		for _, p := range patterns {
			if p == collective.Alltoall && n > 1000 {
				continue // n−1 steps of n/2 pairs: 8M pairs add time, not shapes
			}
			steps := p.MustSchedule(n)
			memo := segmentsOf(steps)
			segs := checkSegments(t, fmt.Sprintf("%v/%d", p, n), steps, memo)
			for shape, nodes := range lists {
				label := fmt.Sprintf("%v/%d/%s", p, n, shape)
				want, err := perPairCompile(lay, nodes, steps)
				if err != nil {
					t.Fatalf("%s: reference compile: %v", label, err)
				}
				reach.observe(lay, nodes, steps, segs)
				for _, src := range []*memoSchedule{memo, nil} {
					got, ok, err := compileCold(lay, nodes, steps, src)
					if err != nil || !ok {
						t.Fatalf("%s (stored=%v): compile: ok=%v err=%v", label, src != nil, ok, err)
					}
					if d := diffLeafSchedules(got, want); d != "" {
						t.Fatalf("%s (stored=%v): %s", label, src != nil, d)
					}
					if src != nil {
						reach.stored++
					} else {
						reach.onTheFly++
					}
				}
				if want.agg != nil {
					aggCompiled++
				}
			}
		}
	}
	t.Logf("reach: %+v, agg compiled in %d cases", reach, aggCompiled)
	for name, n := range map[string]int{
		"stride-1 segments": reach.stride1, "stride-2 segments": reach.stride2,
		"length-1 segments": reach.single, "repeat steps": reach.repeat,
		"A-side run splits": reach.splitA, "B-side run splits": reach.splitB,
		"stored-segment compiles": reach.stored, "on-the-fly compiles": reach.onTheFly,
		"aggregated schedules": aggCompiled,
	} {
		if n == 0 {
			t.Errorf("the inputs never produced %s", name)
		}
	}
}

// TestCompileFallsBackOnRepeatedNodes pins the semantics the run view
// cannot express: the reference loops skip a pair whose two ranks sit on
// one node, which only a list that repeats a node id can produce. Such
// lists must price through the reference loops, bit for bit, wherever the
// repeat falls relative to segments and runs.
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
		for _, tc := range cases {
			nodes := slices.Clone(base)
			nodes[tc.to] = nodes[tc.from]
			label := fmt.Sprintf("%v, repeat at %s", p, tc.name)
			if _, ok, _ := compileCold(cluster.LayoutOf(st.Topology()), nodes, steps, nil); ok {
				t.Fatalf("%s: the run compile accepted a list that repeats node %d", label, nodes[tc.to])
			}
			wantCost, err := jobCostRef(st, nodes, steps)
			if err != nil {
				t.Fatal(err)
			}
			wantHB, err := jobCostHopBytesRef(st, nodes, steps, 1)
			if err != nil {
				t.Fatal(err)
			}
			wantDist, err := jobCostDistanceRef(st, nodes, steps)
			if err != nil {
				t.Fatal(err)
			}
			got, err := JobCost(st, nodes, steps)
			if err != nil || math.Float64bits(got) != math.Float64bits(wantCost) {
				t.Errorf("%s: JobCost = %v, %v; jobCostRef = %v", label, got, err, wantCost)
			}
			got, err = JobCostHopBytes(st, nodes, steps, 1)
			if err != nil || math.Float64bits(got) != math.Float64bits(wantHB) {
				t.Errorf("%s: JobCostHopBytes = %v, %v; reference = %v", label, got, err, wantHB)
			}
			for mode, want := range map[Mode]float64{ModeEffectiveHops: wantCost, ModeHopBytes: wantHB, ModeDistanceOnly: wantDist} {
				got, err = JobCostMode(st, nodes, steps, mode)
				if err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: JobCostMode(%v) = %v, %v; reference = %v", label, mode, got, err, want)
				}
			}
			if agg, err := ScheduleAggregated(st, nodes, steps); agg || err != nil {
				t.Errorf("%s: ScheduleAggregated = %v, %v on a list the reference loops price", label, agg, err)
			}
		}
	}
}

// TestSegmentRangeErrorParity checks that a rank past the node list is
// reported exactly as the reference loop reports it — same step, same
// (A,B) — when it sits inside a segment rather than at its start: in the
// stride-2 fold prefix of a non-power-of-two schedule, mid-way through a
// stride-1 block, and on the A side as well as the B side.
func TestSegmentRangeErrorParity(t *testing.T) {
	st := leafAggState(t)
	lay := cluster.LayoutOf(st.Topology())
	free := []int{2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19, 20}
	cases := []struct {
		name  string
		steps []collective.Step
		nodes int // list length: ranks ≥ nodes are out of range
		want  string
	}{
		// RD over 12 ranks folds (0,1) (2,3) (4,5) (6,7) first.
		{"fold segment, B side", collective.RD.MustSchedule(12), 7, "step 0 pair (6,7)"},
		{"fold segment, A side", collective.RD.MustSchedule(12), 6, "step 0 pair (6,7)"},
		{"fold segment, first pair", collective.RD.MustSchedule(12), 1, "step 0 pair (0,1)"},
		// Binomial over 16 ranks: step 3 is the block (0,8) (1,9) ... (7,15).
		{"stride-1 block, middle", collective.Binomial.MustSchedule(16), 11, "step 3 pair (3,11)"},
		{"later step, B side only", []collective.Step{
			{Pairs: []collective.Pair{{A: 0, B: 1}, {A: 2, B: 3}}, MsgSize: 1},
			{Pairs: []collective.Pair{{A: 0, B: 2}, {A: 1, B: 3}, {A: 2, B: 4}, {A: 3, B: 5}}, MsgSize: 1},
		}, 5, "step 1 pair (3,5)"},
		{"negative rank", []collective.Step{
			{Pairs: []collective.Pair{{A: -2, B: 0}, {A: -1, B: 1}, {A: 0, B: 2}}, MsgSize: 1},
		}, 4, "step 0 pair (-2,0)"},
	}
	for _, tc := range cases {
		nodes := free[:tc.nodes]
		_, refErr := jobCostRef(st, nodes, tc.steps)
		if refErr == nil || !strings.Contains(refErr.Error(), tc.want) {
			t.Fatalf("%s: reference error %v does not name %s", tc.name, refErr, tc.want)
		}
		for _, src := range []*memoSchedule{segmentsOf(tc.steps), nil} {
			_, _, err := compileCold(lay, nodes, tc.steps, src)
			if err == nil || err.Error() != refErr.Error() {
				t.Errorf("%s (stored=%v): compile error %v, reference %v", tc.name, src != nil, err, refErr)
			}
		}
		if _, err := JobCost(st, nodes, tc.steps); err == nil || err.Error() != refErr.Error() {
			t.Errorf("%s: JobCost error %v, reference %v", tc.name, err, refErr)
		}
	}
}

// TestCompileRandomSchedules drives the compile with schedules no pattern
// emits — random pairs, descending and mixed strides, self pairs, ranks
// in either order — against random node lists, both segment sources.
func TestCompileRandomSchedules(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 4, Fanouts: []int{4, 2}})
	lay := cluster.LayoutOf(topo)
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 400; iter++ {
		n := 2 + rng.Intn(24)
		nodes := rng.Perm(topo.NumNodes())[:n]
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
		want, err := perPairCompile(lay, nodes, steps)
		if err != nil {
			t.Fatal(err)
		}
		memo := segmentsOf(steps)
		checkSegments(t, fmt.Sprintf("iter %d", iter), steps, memo)
		for _, src := range []*memoSchedule{memo, nil} {
			got, ok, err := compileCold(lay, nodes, steps, src)
			if err != nil || !ok {
				t.Fatalf("iter %d (stored=%v): ok=%v err=%v", iter, src != nil, ok, err)
			}
			if d := diffLeafSchedules(got, want); d != "" {
				t.Fatalf("iter %d (stored=%v): %s\nnodes %v\nsteps %+v", iter, src != nil, d, nodes, steps)
			}
		}
	}
}
