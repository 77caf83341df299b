package mapping

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
	"repro/internal/topology"
)

// interleaved builds the worst-case rank order: alternating leaves, so
// every low-distance exchange crosses switches.
func interleaved(topo *topology.Topology, perLeaf int) []int {
	var out []int
	for k := 0; k < perLeaf; k++ {
		for l := 0; l < topo.NumLeaves(); l++ {
			out = append(out, topo.LeafNodes(l)[k])
		}
	}
	return out
}

func TestLeafBlockingGroups(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 4, Fanouts: []int{2}})
	st := cluster.New(topo)
	nodes := []int{0, 4, 1, 5, 2, 6} // 3 per leaf, interleaved
	blocked := LeafBlocking(st, nodes)
	if len(blocked) != 6 {
		t.Fatalf("len = %d", len(blocked))
	}
	// All leaf-0 nodes first (same block sizes, lower leaf index wins).
	want := []int{0, 1, 2, 4, 5, 6}
	for i, id := range blocked {
		if id != want[i] {
			t.Fatalf("blocked = %v, want %v", blocked, want)
		}
	}
	// Unequal blocks: bigger block first.
	nodes = []int{4, 0, 5, 6}
	blocked = LeafBlocking(st, nodes)
	want = []int{4, 5, 6, 0}
	for i, id := range blocked {
		if id != want[i] {
			t.Fatalf("blocked = %v, want %v", blocked, want)
		}
	}
}

func TestRemapImprovesInterleaved(t *testing.T) {
	// Four full leaves, ranks shuffled randomly: almost every RD step then
	// contains a cross-switch pair (which dominates the per-step max),
	// while leaf-blocking makes the two low-distance steps fully
	// intra-switch. (Round-robin interleavings are NOT adversarial here:
	// the XOR step structure maps them back to block layouts.)
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 4, Fanouts: []int{4}})
	st := cluster.New(topo)
	nodes := interleaved(topo, 4) // 16 ranks over 4 leaves
	rand.New(rand.NewSource(3)).Shuffle(len(nodes), func(i, j int) {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	})
	if err := st.Allocate(9, cluster.CommIntensive, nodes); err != nil {
		t.Fatal(err)
	}
	before, err := costmodel.JobCost(st, nodes, collective.RD, costmodel.ModeEffectiveHops)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Release(9); err != nil {
		t.Fatal(err)
	}

	mapped, after, err := Remap(st, 9, cluster.CommIntensive, nodes, collective.RD, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("remap did not improve: %v -> %v", before, after)
	}
	// Same node multiset.
	a := append([]int(nil), nodes...)
	b := append([]int(nil), mapped...)
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("remap changed the node set: %v vs %v", a, b)
		}
	}
	// State unchanged.
	if st.FreeTotal() != topo.NumNodes() {
		t.Fatal("remap leaked an allocation")
	}
	// With ranks blocked per leaf, RD's first two steps are intra-switch:
	// only the last step crosses. Cost must equal the blocked mapping's.
	blocked := LeafBlocking(st, nodes)
	if err := st.Allocate(9, cluster.CommIntensive, nodes); err != nil {
		t.Fatal(err)
	}
	blockedCost, err := costmodel.JobCost(st, blocked, collective.RD, costmodel.ModeEffectiveHops)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Release(9); err != nil {
		t.Fatal(err)
	}
	if after > blockedCost+1e-9 {
		t.Fatalf("refined cost %v worse than blocked %v", after, blockedCost)
	}
}

// Remap never increases cost and never changes the node set, regardless of
// the input order, pattern or background load.
func TestRemapNeverWorse(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{3}})
	f := func(seed int64, patRaw, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := cluster.New(topo)
		// Background comm job on a random prefix of leaf 0.
		bg := 1 + rng.Intn(4)
		bgNodes := make([]int, bg)
		for i := range bgNodes {
			bgNodes[i] = topo.LeafNodes(0)[i]
		}
		if err := st.Allocate(1, cluster.CommIntensive, bgNodes); err != nil {
			return false
		}
		// Candidate job over random free nodes.
		size := int(sizeRaw)%10 + 2
		var free []int
		for id := 0; id < topo.NumNodes(); id++ {
			if st.NodeFree(id) {
				free = append(free, id)
			}
		}
		rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		nodes := free[:size]
		pattern := []collective.Pattern{collective.RD, collective.RHVD, collective.Binomial}[patRaw%3]

		if err := st.Allocate(9, cluster.CommIntensive, nodes); err != nil {
			return false
		}
		before, err := costmodel.JobCost(st, nodes, pattern, costmodel.ModeEffectiveHops)
		if err != nil {
			return false
		}
		if err := st.Release(9); err != nil {
			return false
		}
		mapped, after, err := Remap(st, 9, cluster.CommIntensive, nodes, pattern, Options{})
		if err != nil {
			return false
		}
		if after > before+1e-9 {
			return false
		}
		if len(mapped) != len(nodes) {
			return false
		}
		if err := st.CheckInvariants(); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRemapErrorsAndBounds(t *testing.T) {
	topo := topology.PaperExample()
	st := cluster.New(topo)
	if _, _, err := Remap(st, 1, cluster.CommIntensive, nil, collective.RD, Options{}); err == nil {
		t.Error("empty allocation accepted")
	}
	// Busy nodes rejected (tentative allocate fails).
	if err := st.Allocate(1, cluster.CommIntensive, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Remap(st, 2, cluster.CommIntensive, []int{0, 1}, collective.RD, Options{}); err == nil {
		t.Error("busy node accepted")
	}
	// Refinement disabled: still returns a valid mapping.
	mapped, cost, err := Remap(st, 2, cluster.CommIntensive, []int{2, 3, 4, 5}, collective.RD,
		Options{MaxSweeps: -1})
	if err != nil || len(mapped) != 4 || cost <= 0 {
		t.Fatalf("mapped=%v cost=%v err=%v", mapped, cost, err)
	}
	// Oversized jobs skip refinement but still succeed.
	big := topology.MustGenerate(topology.Spec{NodesPerLeaf: 300, Fanouts: []int{2}})
	bst := cluster.New(big)
	var nodes []int
	for id := 0; id < 512; id++ {
		nodes = append(nodes, id)
	}
	_, _, err = Remap(bst, 1, cluster.CommIntensive, nodes, collective.RD,
		Options{MaxRanksForRefine: 64})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRemap64(b *testing.B) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 32, Fanouts: []int{4}})
	st := cluster.New(topo)
	nodes := interleaved(topo, 16) // 64 ranks, 4-way interleaved
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Remap(st, 1, cluster.CommIntensive, nodes, collective.RD, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
