package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
	"repro/internal/topology"
)

// randNew is a seeded rand constructor shared by the property tests.
func randNew(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func leafCounts(st *cluster.State, nodes []int) []int {
	counts := make([]int, st.Topology().NumLeaves())
	for _, id := range nodes {
		counts[st.Topology().LeafOf(id)]++
	}
	return counts
}

// occupy fills leaves so that leaf l has busy[l] allocated (compute) nodes.
func occupy(t testing.TB, st *cluster.State, busy []int) {
	t.Helper()
	var filler []int
	for l, n := range busy {
		ids := st.Topology().LeafNodes(l)
		for k := 0; k < n; k++ {
			filler = append(filler, ids[k])
		}
	}
	if len(filler) == 0 {
		return
	}
	if err := st.Allocate(1000000, cluster.ComputeIntensive, filler); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultLowestSwitchPaperExample reproduces the §3.1 example: with n0
// and n1 allocated in the Figure 2 fat tree, a 4-node job fits under s1
// (the idle leaf) while a 6-node job must go to s2.
func TestDefaultLowestSwitchPaperExample(t *testing.T) {
	st := cluster.New(topology.PaperExample())
	if err := st.Allocate(1, cluster.ComputeIntensive, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	sw, err := findLowestSwitch(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Name != "s1" {
		t.Errorf("4-node job lowest switch = %s, want s1", sw.Name)
	}
	sw, err = findLowestSwitch(st, 6)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Name != "s2" {
		t.Errorf("6-node job lowest switch = %s, want s2", sw.Name)
	}
	if _, err := findLowestSwitch(st, 7); !errors.Is(err, ErrInsufficientNodes) {
		t.Errorf("7-node request: err = %v, want ErrInsufficientNodes", err)
	}
	if _, err := findLowestSwitch(st, 0); err == nil {
		t.Error("0-node request accepted")
	}
}

// TestDefaultBestFit checks SLURM's best-fit: the least-free satisfying
// leaf is preferred.
func TestDefaultBestFit(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{3}})
	st := cluster.New(topo)
	occupy(t, st, []int{0, 4, 6}) // free: 8, 4, 2
	sel := MustNew(Default)
	nodes, err := sel.Select(st, Request{Job: 1, Nodes: 3, Class: cluster.ComputeIntensive})
	if err != nil {
		t.Fatal(err)
	}
	// A 3-node job fits on leaf 1 (free 4), the tightest satisfying leaf.
	counts := leafCounts(st, nodes)
	if counts[1] != 3 || counts[0] != 0 || counts[2] != 0 {
		t.Errorf("best-fit counts = %v, want [0 3 0]", counts)
	}
	// A 10-node job spans leaves from the least-free upward: 2 + 4 + 4.
	nodes, err = sel.Select(st, Request{Job: 2, Nodes: 10, Class: cluster.ComputeIntensive})
	if err != nil {
		t.Fatal(err)
	}
	counts = leafCounts(st, nodes)
	if counts[2] != 2 || counts[1] != 4 || counts[0] != 4 {
		t.Errorf("spread counts = %v, want [4 4 2]", counts)
	}
}

// TestBalancedTable2 reproduces Table 2: a 512-node communication-intensive
// job over leaves with 160,150,100,80,70,50,40 free nodes receives
// 128,128,64,64,64,32,32.
func TestBalancedTable2(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 160, Fanouts: []int{7}})
	st := cluster.New(topo)
	free := []int{160, 150, 100, 80, 70, 50, 40}
	busy := make([]int, len(free))
	for l, f := range free {
		busy[l] = 160 - f
	}
	occupy(t, st, busy)
	sel := MustNew(Balanced)
	nodes, err := sel.Select(st, Request{Job: 1, Nodes: 512, Class: cluster.CommIntensive, Pattern: collective.RD})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 512 {
		t.Fatalf("allocated %d nodes, want 512", len(nodes))
	}
	want := []int{128, 128, 64, 64, 64, 32, 32}
	counts := leafCounts(st, nodes)
	for l, w := range want {
		if counts[l] != w {
			t.Fatalf("leaf counts = %v, want %v", counts, want)
		}
	}
}

// TestBalancedSecondPass forces the reverse-order remainder pass.
func TestBalancedSecondPass(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{2}})
	st := cluster.New(topo)
	occupy(t, st, []int{3, 4}) // free: 5, 4
	sel := MustNew(Balanced)
	nodes, err := sel.Select(st, Request{Job: 1, Nodes: 9, Class: cluster.CommIntensive})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 9 {
		t.Fatalf("allocated %d, want 9", len(nodes))
	}
	// Pass 1: leaf 0 (free 5) gets S=9→4; leaf 1 (free 4) gets 4; pass 2
	// takes the last node from leaf 0.
	counts := leafCounts(st, nodes)
	if counts[0] != 5 || counts[1] != 4 {
		t.Errorf("counts = %v, want [5 4]", counts)
	}
	// No duplicates.
	seen := map[int]bool{}
	for _, id := range nodes {
		if seen[id] {
			t.Fatalf("duplicate node %d in %v", id, nodes)
		}
		seen[id] = true
	}
}

// TestBalancedLeafFastPath: when a single leaf fits the job, all nodes come
// from it (lines 3-5 of both algorithms).
func TestLeafFastPath(t *testing.T) {
	st := cluster.New(topology.PaperExample())
	for _, a := range Algorithms {
		sel := MustNew(a)
		nodes, err := sel.Select(st, Request{Job: 1, Nodes: 3, Class: cluster.CommIntensive})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		counts := leafCounts(st, nodes)
		if counts[0] != 3 && counts[1] != 3 {
			t.Errorf("%v: job split across leaves: %v", a, counts)
		}
	}
}

// TestGreedyPrefersLeastContended: a comm job avoids the leaf with running
// comm jobs even though it has the same free count.
func TestGreedyPrefersLeastContended(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{3}})
	st := cluster.New(topo)
	// Leaf 0: 4 comm nodes busy. Leaf 1: 4 compute nodes busy. Leaf 2: idle.
	if err := st.Allocate(1, cluster.CommIntensive, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := st.Allocate(2, cluster.ComputeIntensive, []int{8, 9, 10, 11}); err != nil {
		t.Fatal(err)
	}
	sel := MustNew(Greedy)
	// 10-node comm job (larger than any single leaf, so the sorting branch
	// runs): leaf 2 (ratio 0) first, then leaf 1 (ratio 0+1/2), never
	// leaf 0 (ratio 1+1/2).
	nodes, err := sel.Select(st, Request{Job: 3, Nodes: 10, Class: cluster.CommIntensive})
	if err != nil {
		t.Fatal(err)
	}
	counts := leafCounts(st, nodes)
	if counts[2] != 8 || counts[1] != 2 || counts[0] != 0 {
		t.Errorf("comm job counts = %v, want [0 2 8]", counts)
	}
	// A compute job with the same request goes the other way: most
	// contended leaves first.
	nodes, err = sel.Select(st, Request{Job: 4, Nodes: 10, Class: cluster.ComputeIntensive})
	if err != nil {
		t.Fatal(err)
	}
	counts = leafCounts(st, nodes)
	if counts[0] != 4 || counts[1] != 4 || counts[2] != 2 {
		t.Errorf("compute job counts = %v, want [4 4 2]", counts)
	}
}

// TestBalancedComputeAscending: compute jobs fill small free blocks first.
func TestBalancedComputeAscending(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{3}})
	st := cluster.New(topo)
	occupy(t, st, []int{0, 6, 4}) // free: 8, 2, 4
	sel := MustNew(Balanced)
	// 11 nodes exceed every single leaf, so the ascending fill runs:
	// leaf 1 (2) + leaf 2 (4) + leaf 0 (5).
	nodes, err := sel.Select(st, Request{Job: 1, Nodes: 11, Class: cluster.ComputeIntensive})
	if err != nil {
		t.Fatal(err)
	}
	counts := leafCounts(st, nodes)
	if counts[1] != 2 || counts[2] != 4 || counts[0] != 5 {
		t.Errorf("counts = %v, want [5 2 4]", counts)
	}
}

// TestAdaptivePicksCheaper: with one heavily contended large-free leaf and
// two quiet smaller leaves, greedy and balanced disagree and adaptive takes
// the lower-cost candidate for a comm job.
func TestAdaptiveAgreesWithCheaperCandidate(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{3}})
	st := cluster.New(topo)
	// Leaf 0: 1 comm node busy (free 7, some contention, biggest free).
	// Leaves 1,2: 4 free each, no contention.
	if err := st.Allocate(1, cluster.CommIntensive, []int{0}); err != nil {
		t.Fatal(err)
	}
	occupy(t, st, []int{0, 4, 4})
	req := Request{Job: 9, Nodes: 8, Class: cluster.CommIntensive, Pattern: collective.RD}

	g, err := MustNew(Greedy).Select(st, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MustNew(Balanced).Select(st, req)
	if err != nil {
		t.Fatal(err)
	}
	costG, err := costmodel.CandidateCostMode(st, req.Job, req.Class, g, req.Pattern, costmodel.ModeEffectiveHops)
	if err != nil {
		t.Fatal(err)
	}
	costB, err := costmodel.CandidateCostMode(st, req.Job, req.Class, b, req.Pattern, costmodel.ModeEffectiveHops)
	if err != nil {
		t.Fatal(err)
	}
	a, err := MustNew(Adaptive).Select(st, req)
	if err != nil {
		t.Fatal(err)
	}
	costA, err := costmodel.CandidateCostMode(st, req.Job, req.Class, a, req.Pattern, costmodel.ModeEffectiveHops)
	if err != nil {
		t.Fatal(err)
	}
	min := costG
	if costB < min {
		min = costB
	}
	if costA != min {
		t.Errorf("adaptive cost %v, want min(greedy %v, balanced %v)", costA, costG, costB)
	}
	// For a compute job adaptive keeps the pricier candidate.
	reqC := Request{Job: 10, Nodes: 8, Class: cluster.ComputeIntensive, Pattern: collective.RD}
	ac, err := MustNew(Adaptive).Select(st, reqC)
	if err != nil {
		t.Fatal(err)
	}
	costAC, err := costmodel.CandidateCostMode(st, reqC.Job, reqC.Class, ac, reqC.Pattern, costmodel.ModeEffectiveHops)
	if err != nil {
		t.Fatal(err)
	}
	gc, _ := MustNew(Greedy).Select(st, reqC)
	bc, _ := MustNew(Balanced).Select(st, reqC)
	costGC, _ := costmodel.CandidateCostMode(st, reqC.Job, reqC.Class, gc, reqC.Pattern, costmodel.ModeEffectiveHops)
	costBC, _ := costmodel.CandidateCostMode(st, reqC.Job, reqC.Class, bc, reqC.Pattern, costmodel.ModeEffectiveHops)
	max := costGC
	if costBC > max {
		max = costBC
	}
	if costAC != max {
		t.Errorf("adaptive(compute) cost %v, want max(%v, %v)", costAC, costGC, costBC)
	}
}

// Property: every selector returns exactly N distinct free nodes whenever
// the cluster has N free nodes, and fails with ErrInsufficientNodes
// otherwise; committing then releasing restores the state.
func TestSelectorContract(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{4}})
	algs := []Algorithm{Default, Greedy, Balanced, Adaptive, BalancedNoPow2}
	f := func(seedBusy [4]uint8, nRaw uint8, algRaw uint8, classRaw uint8) bool {
		st := cluster.New(topo)
		busy := make([]int, 4)
		for l := range busy {
			busy[l] = int(seedBusy[l]) % 9
		}
		total := 0
		for _, b := range busy {
			total += b
		}
		if total > 0 {
			var filler []int
			for l, n := range busy {
				ids := topo.LeafNodes(l)
				filler = append(filler, ids[:n]...)
			}
			if err := st.Allocate(1000000, cluster.CommIntensive, filler); err != nil {
				return false
			}
		}
		n := int(nRaw)%34 + 1
		class := cluster.ComputeIntensive
		if classRaw%2 == 0 {
			class = cluster.CommIntensive
		}
		sel := MustNew(algs[int(algRaw)%len(algs)])
		req := Request{Job: 7, Nodes: n, Class: class, Pattern: collective.RHVD}
		nodes, err := sel.Select(st, req)
		if n > st.FreeTotal() {
			return errors.Is(err, ErrInsufficientNodes)
		}
		if err != nil {
			return false
		}
		if len(nodes) != n {
			return false
		}
		seen := make(map[int]bool, n)
		for _, id := range nodes {
			if seen[id] || !st.NodeFree(id) {
				return false
			}
			seen[id] = true
		}
		freeBefore := st.FreeTotal()
		if err := st.Allocate(req.Job, req.Class, nodes); err != nil {
			return false
		}
		if err := st.Release(req.Job); err != nil {
			return false
		}
		return st.FreeTotal() == freeBefore && st.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Balanced allocations of power-of-two jobs land power-of-two chunks per
// leaf in the first pass whenever the request fits without the remainder
// pass.
func TestBalancedPow2Chunks(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 16, Fanouts: []int{4}})
	st := cluster.New(topo)
	occupy(t, st, []int{4, 6, 2, 9}) // free: 12, 10, 14, 7
	sel := MustNew(Balanced)
	nodes, err := sel.Select(st, Request{Job: 1, Nodes: 32, Class: cluster.CommIntensive})
	if err != nil {
		t.Fatal(err)
	}
	counts := leafCounts(st, nodes)
	// Sorted by free desc: leaf2 (14) -> S=32→8, leaf0 (12) -> 8,
	// leaf1 (10) -> 8, leaf3 (7) -> S=4, remaining 4 via reverse pass:
	// leaf3 has 3 free left -> 3, leaf1 -> 1.
	want := []int{8, 9, 8, 7}
	for l, w := range want {
		if counts[l] != w {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestParseAndString(t *testing.T) {
	for _, a := range []Algorithm{Default, Greedy, Balanced, Adaptive, BalancedNoPow2} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
		sel := MustNew(a)
		if sel.Name() != a.String() {
			t.Errorf("selector name %q != %q", sel.Name(), a.String())
		}
	}
	if _, err := ParseAlgorithm("frob"); err == nil {
		t.Error("ParseAlgorithm(frob): expected error")
	}
	if _, err := New(Algorithm(99)); err == nil {
		t.Error("New(99): expected error")
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm should stringify")
	}
	if got, _ := ParseAlgorithm("slurm"); got != Default {
		t.Error("slurm alias broken")
	}
}

func TestSelectAndAllocate(t *testing.T) {
	st := cluster.New(topology.PaperExample())
	nodes, err := SelectAndAllocate(MustNew(Greedy), st, Request{Job: 1, Nodes: 4, Class: cluster.CommIntensive})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 || st.FreeTotal() != 4 {
		t.Fatalf("allocate failed: %v free=%d", nodes, st.FreeTotal())
	}
	if _, err := SelectAndAllocate(MustNew(Greedy), st, Request{Job: 2, Nodes: 5, Class: cluster.CommIntensive}); !errors.Is(err, ErrInsufficientNodes) {
		t.Fatalf("err = %v, want ErrInsufficientNodes", err)
	}
}

func BenchmarkSelect(b *testing.B) {
	topo := topology.Theta()
	for _, a := range Algorithms {
		b.Run(a.String(), func(b *testing.B) {
			st := cluster.New(topo)
			occupy(b, st, func() []int {
				busy := make([]int, topo.NumLeaves())
				for l := range busy {
					busy[l] = (l * 37) % 300
				}
				return busy
			}())
			sel := MustNew(a)
			req := Request{Job: 1, Nodes: 512, Class: cluster.CommIntensive, Pattern: collective.RD}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(st, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Selectors must never pick drained nodes; capacity errors account for
// drained capacity.
func TestSelectorsSkipDrainedNodes(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 4, Fanouts: []int{2}})
	st := cluster.New(topo)
	// Drain all of leaf 0.
	for _, id := range topo.LeafNodes(0) {
		if err := st.Drain(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []Algorithm{Default, Greedy, Balanced, Adaptive, BalancedNoPow2} {
		sel := MustNew(a)
		nodes, err := sel.Select(st, Request{Job: 1, Nodes: 4, Class: cluster.CommIntensive, Pattern: collective.RD})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		for _, id := range nodes {
			if topo.LeafOf(id) == 0 {
				t.Fatalf("%v selected drained node %d", a, id)
			}
		}
		if _, err := sel.Select(st, Request{Job: 2, Nodes: 5, Class: cluster.CommIntensive}); !errors.Is(err, ErrInsufficientNodes) {
			t.Fatalf("%v: expected insufficient nodes with drained leaf, got %v", a, err)
		}
	}
}

// The defining property of the adaptive algorithm: for any reachable
// cluster state, the communication cost of its choice for a comm job is
// exactly min(cost(greedy), cost(balanced)); for compute jobs it is the
// max. Verified over randomized cluster states.
func TestAdaptiveOptimalityProperty(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{4}})
	f := func(seed int64, nRaw uint8, classRaw, patRaw uint8) bool {
		rng := randNew(seed)
		st := cluster.New(topo)
		// Random background: up to 5 jobs of random class and placement.
		nextID := cluster.JobID(100)
		for k := 0; k < 5; k++ {
			size := 1 + rng.Intn(5)
			var nodes []int
			for id := 0; id < topo.NumNodes() && len(nodes) < size; id++ {
				if st.NodeFree(id) && rng.Intn(3) == 0 {
					nodes = append(nodes, id)
				}
			}
			if len(nodes) == 0 {
				continue
			}
			class := cluster.ComputeIntensive
			if rng.Intn(2) == 0 {
				class = cluster.CommIntensive
			}
			if st.Allocate(nextID, class, nodes) != nil {
				return false
			}
			nextID++
		}
		n := int(nRaw)%16 + 2
		if n > st.FreeTotal() {
			return true
		}
		class := cluster.ComputeIntensive
		if classRaw%2 == 0 {
			class = cluster.CommIntensive
		}
		pattern := []collective.Pattern{collective.RD, collective.RHVD, collective.Binomial}[patRaw%3]
		req := Request{Job: 7, Nodes: n, Class: class, Pattern: pattern}

		cost := func(alg Algorithm) float64 {
			nodes, err := MustNew(alg).Select(st, req)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			c, err := costmodel.CandidateCostMode(st, req.Job, req.Class, nodes, pattern, costmodel.ModeEffectiveHops)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		g, b, a := cost(Greedy), cost(Balanced), cost(Adaptive)
		if class == cluster.CommIntensive {
			want := g
			if b < want {
				want = b
			}
			return a == want
		}
		want := g
		if b > want {
			want = b
		}
		return a == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Balanced edge cases around the power-of-two subdivision.
func TestBalancedEdgeCases(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{3}})
	sel := MustNew(Balanced)

	// Request equal to the whole free pool.
	st := cluster.New(topo)
	nodes, err := sel.Select(st, Request{Job: 1, Nodes: 24, Class: cluster.CommIntensive})
	if err != nil || len(nodes) != 24 {
		t.Fatalf("full-machine request: %d nodes, %v", len(nodes), err)
	}

	// A leaf with zero free nodes must be skipped without zeroing S.
	st = cluster.New(topo)
	occupy(t, st, []int{8, 0, 0}) // leaf 0 full
	nodes, err = sel.Select(st, Request{Job: 2, Nodes: 9, Class: cluster.CommIntensive})
	if err != nil {
		t.Fatal(err)
	}
	counts := leafCounts(st, nodes)
	if counts[0] != 0 || counts[1]+counts[2] != 9 {
		t.Fatalf("counts = %v", counts)
	}

	// Non-power-of-two request: S halves through non-power values (paper's
	// integer division), still completing exactly.
	st = cluster.New(topo)
	occupy(t, st, []int{1, 3, 5}) // free 7, 5, 3
	nodes, err = sel.Select(st, Request{Job: 3, Nodes: 13, Class: cluster.CommIntensive})
	if err != nil || len(nodes) != 13 {
		t.Fatalf("non-pow2 request: %d nodes, %v", len(nodes), err)
	}

	// Single-node comm job.
	st = cluster.New(topo)
	nodes, err = sel.Select(st, Request{Job: 4, Nodes: 1, Class: cluster.CommIntensive})
	if err != nil || len(nodes) != 1 {
		t.Fatalf("single node: %v, %v", nodes, err)
	}
}

// TestPlacementFromReusedScratchFailsLoudly: a placement lives in its
// Scratch until the scratch's next placement of the same kind. Pricing or
// committing it after that fails with cluster.ErrReusedPlacement on the
// very state it was selected on — the generation has not moved, so only
// the store can tell — and never commits the nodes the newer selection
// chose. A reference selection placed in Reference() leaves it valid.
func TestPlacementFromReusedScratchFailsLoudly(t *testing.T) {
	st := benchState(t)
	sel, def, sc := MustNew(Adaptive), MustNew(Default), new(Scratch)
	req := Request{Job: 1, Nodes: 200, Class: cluster.CommIntensive, Pattern: collective.RD}
	old, _, err := Place(sel, st, req, sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Place(def, st, req, sc.Reference()); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Pricing().PlacementCostMode(st, req.Job, req.Class, &old, req.Pattern, costmodel.ModeEffectiveHops); err != nil {
		t.Fatalf("a reference selection invalidated the placement: %v", err)
	}
	gen, free := st.Generation(), st.FreeTotal()
	if _, _, err := Place(sel, st, Request{Job: 2, Nodes: 300, Class: cluster.CommIntensive, Pattern: collective.RD}, sc); err != nil {
		t.Fatal(err)
	}
	if st.Generation() != gen {
		t.Fatal("placing moved the generation")
	}
	if _, err := sc.Pricing().PlacementCostMode(st, req.Job, req.Class, &old, req.Pattern, costmodel.ModeEffectiveHops); !errors.Is(err, cluster.ErrReusedPlacement) {
		t.Errorf("pricing a placement whose scratch was reused: %v, want ErrReusedPlacement", err)
	}
	if err := st.AllocatePlacement(req.Job, req.Class, &old); !errors.Is(err, cluster.ErrReusedPlacement) || errors.Is(err, cluster.ErrNodeUnavailable) {
		t.Errorf("committing a placement whose scratch was reused: %v, want ErrReusedPlacement and no retry", err)
	}
	if st.FreeTotal() != free || st.Allocation(req.Job) != nil {
		t.Fatalf("a rejected commit took %d nodes", free-st.FreeTotal())
	}
}
