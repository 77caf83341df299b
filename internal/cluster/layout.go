package cluster

import (
	"sync"

	"repro/internal/topology"
)

// Layout is the flat structure-of-arrays view of a topology that
// costmodel's pricing and State's per-leaf bitmaps consume. Per-leaf
// quantities — leaf sizes (as both the exact integers and their float64
// conversions) and the node → leaf map — are laid out as contiguous
// slices; the per-*pair* quantities Eq. 5 needs (leaf-pair distance,
// pairwise size sum) are computed on demand from that per-leaf data by
// Dist and PairSize, so a Layout is O(nodes + leaves) however many leaves
// the topology has. A Layout is built once per topology and shared (the
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
	// LeafWordOff/NodeBit place every node in the per-leaf bitmaps a State
	// and an Allocation keep: leaf l owns words
	// [LeafWordOff[l], LeafWordOff[l+1]), 64 nodes to a word in LeafNodes(l)
	// order, and NodeBit[id] is node id's bit index over all words (word
	// NodeBit[id]>>6, bit NodeBit[id]&63). The bits of a leaf's last word
	// past its size are pad: no node answers to them.
	LeafWordOff []int32
	NodeBit     []int32
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
		LeafWordOff: make([]int32, l+1),
		NodeBit:     make([]int32, topo.NumNodes()),
	}
	for id := 0; id < topo.NumNodes(); id++ {
		lay.NodeLeaf[id] = int32(topo.LeafOf(id))
	}
	for i := 0; i < l; i++ {
		lay.LeafSize[i] = float64(topo.LeafSize(i))
		lay.LeafSizeInt[i] = int32(topo.LeafSize(i))
		for at, id := range topo.LeafNodes(i) {
			lay.NodeBit[id] = lay.LeafWordOff[i]<<6 + int32(at)
		}
		lay.LeafWordOff[i+1] = lay.LeafWordOff[i] + int32(topo.LeafSize(i)+63)>>6
	}
	return lay
}
