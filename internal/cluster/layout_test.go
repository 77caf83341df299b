package cluster

import (
	"math"
	"testing"

	"repro/internal/topology"
)

// TestLayoutMatchesTopology checks every field and derived accessor of the
// flat SoA layout against the topology accessors it mirrors — the layout
// is only sound if each float64 value is the conversion of the exact
// integer the reference expressions convert. The Dist/PairSize methods are
// exercised over every leaf pair even though the layout no longer stores a
// matrix: the on-demand computation must agree pairwise, not just
// per leaf.
func TestLayoutMatchesTopology(t *testing.T) {
	specs := []topology.Spec{
		{NodesPerLeaf: 4, Fanouts: []int{6}},
		{NodesPerLeaf: 3, Fanouts: []int{4, 3}},  // three-level: 12 leaves in 3 pods
		{NodesPerLeaf: 2, Fanouts: []int{37, 5}}, // 185 leaves: beyond the dense-block threshold
	}
	for _, spec := range specs {
		topo := topology.MustGenerate(spec)
		lay := LayoutOf(topo)
		if lay == nil {
			t.Fatalf("%+v: no layout for %d leaves", spec, topo.NumLeaves())
		}
		if lay.L != topo.NumLeaves() {
			t.Fatalf("%+v: L = %d, want %d", spec, lay.L, topo.NumLeaves())
		}
		if lay.Topo != topo {
			t.Fatalf("%+v: layout holds topology %p, want %p", spec, lay.Topo, topo)
		}
		for id := 0; id < topo.NumNodes(); id++ {
			if int(lay.NodeLeaf[id]) != topo.LeafOf(id) {
				t.Errorf("%+v: NodeLeaf[%d] = %d, want %d", spec, id, lay.NodeLeaf[id], topo.LeafOf(id))
			}
		}
		for i := 0; i < lay.L; i++ {
			if math.Float64bits(lay.LeafSize[i]) != math.Float64bits(float64(topo.LeafSize(i))) {
				t.Errorf("%+v: LeafSize[%d] = %v, want %d", spec, i, lay.LeafSize[i], topo.LeafSize(i))
			}
			if int(lay.LeafSizeInt[i]) != topo.LeafSize(i) {
				t.Errorf("%+v: LeafSizeInt[%d] = %d, want %d", spec, i, lay.LeafSizeInt[i], topo.LeafSize(i))
			}
			for j := 0; j < lay.L; j++ {
				wantDist := float64(2 * topo.LeafCommonLevel(i, j))
				if math.Float64bits(lay.Dist(int32(i), int32(j))) != math.Float64bits(wantDist) {
					t.Errorf("%+v: Dist(%d,%d) = %v, want %v", spec, i, j, lay.Dist(int32(i), int32(j)), wantDist)
				}
				wantPair := float64(topo.LeafSize(i) + topo.LeafSize(j))
				if math.Float64bits(lay.PairSize(int32(i), int32(j))) != math.Float64bits(wantPair) {
					t.Errorf("%+v: PairSize(%d,%d) = %v, want %v", spec, i, j, lay.PairSize(int32(i), int32(j)), wantPair)
				}
			}
		}
		// Dist must also agree with the node-level Distance for nodes on the
		// two leaves (Distance is what the reference Hops loop calls).
		for i := 0; i < lay.L; i++ {
			a := topo.LeafNodes(i)[0]
			for j := 0; j < lay.L; j++ {
				b := topo.LeafNodes(j)[0]
				if i == j {
					b = topo.LeafNodes(j)[1] // distinct nodes, same leaf
				}
				if math.Float64bits(lay.Dist(int32(i), int32(j))) != math.Float64bits(float64(topo.Distance(a, b))) {
					t.Errorf("%+v: Dist(%d,%d) = %v, want node distance %d",
						spec, i, j, lay.Dist(int32(i), int32(j)), topo.Distance(a, b))
				}
			}
		}
		for l := 0; l < lay.L; l++ {
			for k, id := range topo.LeafNodes(l) {
				if got, want := lay.NodeBit[id], lay.LeafWordOff[l]<<6+int32(k); got != want {
					t.Errorf("%+v: leaf %d node %d at bit %d, want %d", spec, l, id, got, want)
				}
			}
			if words := lay.LeafWordOff[l+1] - lay.LeafWordOff[l]; int(words) != (topo.LeafSize(l)+63)/64 {
				t.Errorf("%+v: leaf %d owns %d words for %d nodes", spec, l, words, topo.LeafSize(l))
			}
		}
	}
}

// TestLayoutShared pins the cache contract: one Layout per topology
// (pointer-identical across calls, so the costmodel caches keyed on the
// layout pointer stay coherent) and distinct layouts for distinct
// topologies.
func TestLayoutShared(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{5}})
	if a, b := LayoutOf(topo), LayoutOf(topo); a != b {
		t.Errorf("LayoutOf returned distinct layouts %p, %p for one topology", a, b)
	}
	other := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{5}})
	if LayoutOf(topo) == LayoutOf(other) {
		t.Error("distinct topologies share a layout")
	}
}

// TestLayoutBeyondDenseThreshold is the regression test for the old
// 128-leaf ceiling: topologies past it used to get no layout
// at all, silently dropping the largest machines onto the O(P log P)
// reference loop. Now every leaf count gets a full layout — the fast
// kernel path — and its derived pair quantities stay exact.
func TestLayoutBeyondDenseThreshold(t *testing.T) {
	for _, leaves := range []int{128, 129, 300, 1024} {
		topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{leaves}})
		lay := LayoutOf(topo)
		if lay == nil {
			t.Fatalf("LayoutOf returned nil at %d leaves; the large-machine fast path is gone", leaves)
		}
		if lay.L != leaves {
			t.Fatalf("layout has %d leaves, want %d", lay.L, leaves)
		}
		// Spot-check the extremes of the pair space.
		last := int32(leaves - 1)
		if got := lay.Dist(0, last); got != 4 {
			t.Errorf("%d leaves: Dist(0,%d) = %v, want 4 (two-level tree)", leaves, last, got)
		}
		if got := lay.Dist(last, last); got != 2 {
			t.Errorf("%d leaves: Dist(%d,%d) = %v, want 2 (same leaf)", leaves, last, last, got)
		}
		if got := lay.PairSize(0, last); got != 4 {
			t.Errorf("%d leaves: PairSize(0,%d) = %v, want 4", leaves, last, got)
		}
	}
}

// TestLayoutCacheBounded drives the layout cache past its overflow bound
// with throwaway topologies (the fuzzing access pattern) and checks it
// never grows without bound, while the layout returned after overflow is
// still correct.
func TestLayoutCacheBounded(t *testing.T) {
	for i := 0; i < maxLayoutCacheEntries+10; i++ {
		topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 1, Fanouts: []int{2}})
		lay := LayoutOf(topo)
		if lay == nil || lay.L != 2 || lay.Topo != topo {
			t.Fatalf("iteration %d: bad layout %+v", i, lay)
		}
	}
	layoutCache.mu.RLock()
	n := len(layoutCache.m)
	layoutCache.mu.RUnlock()
	if n > maxLayoutCacheEntries {
		t.Fatalf("layout cache holds %d entries, bound is %d", n, maxLayoutCacheEntries)
	}
}
