package cluster

import (
	"math"
	"sync"

	"repro/internal/topology"
)

// Layout is the flat structure-of-arrays view of a topology that the
// leaf-aggregated cost kernel (costmodel) consumes. Per-leaf quantities —
// leaf sizes (as both the exact integers and their float64 conversions)
// and the node → leaf map — are laid out as contiguous slices; the
// per-*pair* quantities Eq. 5 needs (leaf-pair distance, pairwise size
// sum) are computed on demand from that per-leaf data by Dist and
// PairSize, so a Layout is O(nodes + leaves) however many leaves the
// topology has. A Layout is built once per topology and shared (the
// topology is immutable); the generation-keyed state on top of it
// (per-leaf contention) lives in State.
//
// All float64 values are conversions of the exact integers the reference
// expressions convert (float64(2*level), float64(size_i + size_j)), so
// kernels reading them produce bit-identical results to code calling
// Topology.Distance and Topology.LeafSize directly.
type Layout struct {
	// L is the number of leaf switches.
	L int
	// Topo is the immutable topology the layout flattens; Dist resolves
	// lowest-common-switch levels through its per-leaf ancestor chains.
	Topo *topology.Topology
	// NodeLeaf maps node ID -> leaf index.
	NodeLeaf []int32
	// LeafSize is float64(L_nodes) per leaf, the denominator of Eq. 2.
	LeafSize []float64
	// LeafSizeInt is L_nodes per leaf as the exact integer, the summand of
	// Eq. 3's shared-term denominator (PairSize converts the integer sum,
	// never sums the conversions).
	LeafSizeInt []int32
	// LeafNodeOff/LeafNodeID are the per-leaf attached-node ranges as one
	// contiguous slice: leaf l's node IDs are
	// LeafNodeID[LeafNodeOff[l]:LeafNodeOff[l+1]], ascending.
	LeafNodeOff []int32
	LeafNodeID  []int32
	// LeafWordOff/NodeBit place every node in the per-leaf bitmaps a State
	// and an Allocation keep: leaf l owns words
	// [LeafWordOff[l], LeafWordOff[l+1]), 64 nodes to a word in LeafNodes(l)
	// order, and NodeBit[id] is node id's bit index over all words (word
	// NodeBit[id]>>6, bit NodeBit[id]&63). The bits of a leaf's last word
	// past its size are pad: no node answers to them.
	LeafWordOff []int32
	NodeBit     []int32

	// AggLevel is the switch level the subtree-aggregated cost kernel
	// groups leaves at, chosen once per layout: the level k in
	// [2, Height()] whose ancestor-group count is closest to √L (balancing
	// the O(S²) cross-subtree block count against the O((L/S)²) intra-
	// subtree exact pairs), restricted to 2 ≤ S < L so the grouping is
	// non-trivial. 0 means no usable level exists (two-level trees group
	// everything under the root) and costing stays on the flat leaf-pair
	// kernel.
	AggLevel int
	// SubOf maps leaf index -> dense subtree id at AggLevel (nil when
	// AggLevel is 0); SubCount is the number of subtrees and SubRep the
	// first (lowest-index) leaf in each — the representative SubDist
	// resolves cross-subtree distance through.
	SubOf    []int32
	SubCount int
	SubRep   []int32
}

// Dist returns the Eq. 4 distance between two leaves —
// float64(2 * level of the lowest common switch), the exact conversion the
// reference Hops loop performs via Topology.Distance. Dist(l, l) is 2, the
// distance between two distinct nodes on the same leaf.
func (lay *Layout) Dist(li, lj int32) float64 {
	return float64(2 * lay.Topo.LeafCommonLevel(int(li), int(lj)))
}

// PairSize returns float64(size_i + size_j), the denominator of Eq. 3's
// shared term: the integer sizes are summed first and the sum converted,
// matching the reference expression bit for bit.
func (lay *Layout) PairSize(li, lj int32) float64 {
	return float64(int(lay.LeafSizeInt[li]) + int(lay.LeafSizeInt[lj]))
}

// SubDist returns the Eq. 4 distance between any leaf of subtree a and any
// leaf of subtree b (a ≠ b, dense ids at AggLevel). Leaves in distinct
// level-k ancestor groups meet only above both group ancestors, so the
// lowest common switch — and hence Dist — is identical for every cross
// pair of the block; the representative leaves stand in for all of them
// bit for bit (the same float64(2 * level) conversion of the same integer
// level). Only meaningful when AggLevel is non-zero.
func (lay *Layout) SubDist(a, b int32) float64 {
	return lay.Dist(lay.SubRep[a], lay.SubRep[b])
}

// maxLayoutCacheEntries bounds the layout cache. Layouts are O(nodes), so
// steady-state memory is tiny, but unbounded topology churn (fuzzing
// builds thousands of throwaway trees) must not pin them all; on overflow
// the cache is cleared wholesale — correctness never depends on layout
// identity across calls, only the costmodel caches' warmth does.
const maxLayoutCacheEntries = 512

// layoutCache shares one Layout per topology; topologies are immutable so
// entries are never invalidated, only evicted wholesale on overflow.
var layoutCache struct {
	mu sync.RWMutex
	m  map[*topology.Topology]*Layout
}

// LayoutOf returns the shared flat layout for the topology, building it on
// first use. Every topology has a layout — per-pair quantities are derived
// on demand, so there is no leaf-count ceiling and never a nil return.
func LayoutOf(topo *topology.Topology) *Layout {
	layoutCache.mu.RLock()
	lay := layoutCache.m[topo]
	layoutCache.mu.RUnlock()
	if lay != nil {
		return lay
	}
	built := buildLayout(topo)
	layoutCache.mu.Lock()
	defer layoutCache.mu.Unlock()
	if lay := layoutCache.m[topo]; lay != nil {
		return lay
	}
	if layoutCache.m == nil || len(layoutCache.m) >= maxLayoutCacheEntries {
		layoutCache.m = make(map[*topology.Topology]*Layout) //lint:allow globalmut bounded memo cache reset under layoutCache.mu; idempotent rebuild, not a mode switch
	}
	layoutCache.m[topo] = built //lint:allow globalmut memo insert under layoutCache.mu; layouts are immutable once built
	return built
}

func buildLayout(topo *topology.Topology) *Layout {
	l := topo.NumLeaves()
	lay := &Layout{
		L:           l,
		Topo:        topo,
		NodeLeaf:    make([]int32, topo.NumNodes()),
		LeafSize:    make([]float64, l),
		LeafSizeInt: make([]int32, l),
		LeafNodeOff: make([]int32, l+1),
		LeafWordOff: make([]int32, l+1),
		NodeBit:     make([]int32, topo.NumNodes()),
	}
	for id := 0; id < topo.NumNodes(); id++ {
		lay.NodeLeaf[id] = int32(topo.LeafOf(id))
	}
	for i := 0; i < l; i++ {
		lay.LeafSize[i] = float64(topo.LeafSize(i))
		lay.LeafSizeInt[i] = int32(topo.LeafSize(i))
	}
	for i := 0; i < l; i++ {
		lay.LeafNodeOff[i] = int32(len(lay.LeafNodeID))
		for at, id := range topo.LeafNodes(i) {
			lay.LeafNodeID = append(lay.LeafNodeID, int32(id))
			lay.NodeBit[id] = lay.LeafWordOff[i]<<6 + int32(at)
		}
		lay.LeafWordOff[i+1] = lay.LeafWordOff[i] + int32(topo.LeafSize(i)+63)>>6
	}
	lay.LeafNodeOff[l] = int32(len(lay.LeafNodeID))
	chooseAggLevel(lay, topo)
	return lay
}

// chooseAggLevel picks the layout's subtree-aggregation level: among the
// levels k in [2, Height()] whose ancestor-group count S satisfies
// 2 ≤ S < L, the one with S closest to √L (ties to the lower level). S²
// cross-subtree blocks trade against (L/S)² exact intra-subtree pairs, so
// √L balances the two; S < 2 means every leaf groups together (all pairs
// intra, nothing to collapse) and S = L means every leaf is its own group
// (every block a single pair, pure overhead) — both leave AggLevel at 0
// and the flat kernel in charge.
func chooseAggLevel(lay *Layout, topo *topology.Topology) {
	target := math.Sqrt(float64(lay.L))
	bestDiff := math.Inf(1)
	for k := 2; k <= topo.Height(); k++ {
		groups, n := topo.AncestorGroups(k)
		if n < 2 || n >= lay.L {
			continue
		}
		if diff := math.Abs(float64(n) - target); diff < bestDiff {
			bestDiff = diff
			lay.AggLevel = k
			lay.SubOf = groups
			lay.SubCount = n
		}
	}
	if lay.AggLevel == 0 {
		return
	}
	lay.SubRep = make([]int32, lay.SubCount)
	for i := range lay.SubRep {
		lay.SubRep[i] = -1
	}
	for l, g := range lay.SubOf {
		if lay.SubRep[g] == -1 {
			lay.SubRep[g] = int32(l)
		}
	}
}
