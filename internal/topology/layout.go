package topology

// Layout is the flat structure-of-arrays view of a topology that
// costmodel's pricing and cluster's per-leaf bitmaps consume. Per-leaf
// quantities — leaf sizes (as both the exact integers and their float64
// conversions), each leaf's ancestor chain and the node → leaf map — are
// laid out as contiguous slices; the per-*pair* quantities Eq. 5 needs
// (leaf-pair distance, pairwise size sum) are computed on demand from that
// per-leaf data by Dist and PairSize, so a Layout is O(nodes + leaves·height)
// however many leaves the topology has. Every topology builds its layout
// once, with itself, and it lives exactly as long as the topology; the
// generation-keyed state on top of it (per-leaf contention) lives in
// cluster.State.
//
// All float64 values are conversions of the exact integers the reference
// expressions convert (float64(2*level), float64(size_i + size_j)), so
// kernels reading them produce bit-identical results to code calling
// Topology.Distance and Topology.LeafSize directly.
type Layout struct {
	// L is the number of leaf switches.
	L int
	// NodeLeaf maps node ID -> leaf index.
	NodeLeaf []int32
	// LeafSize is float64(L_nodes) per leaf, the denominator of Eq. 2.
	LeafSize []float64
	// LeafSizeInt is L_nodes per leaf as the exact integer, the summand of
	// Eq. 3's shared-term denominator (PairSize converts the integer sum,
	// never sums the conversions).
	LeafSizeInt []int32
	// LeafWordOff/NodeBit place every node in the per-leaf bitmaps a
	// cluster.State and an Allocation keep: leaf l owns words
	// [LeafWordOff[l], LeafWordOff[l+1]), 64 nodes to a word in LeafNodes(l)
	// order, and NodeBit[id] is node id's bit index over all words (word
	// NodeBit[id]>>6, bit NodeBit[id]&63). The bits of a leaf's last word
	// past its size are pad: no node answers to them.
	LeafWordOff []int32
	NodeBit     []int32

	// anc holds, for every leaf, its ancestor chain leaf → root as switch
	// indexes (leaf i's chain is anc[ancOff[i]:ancOff[i+1]]); swLevel is
	// each switch's level by index. Together they answer
	// lowest-common-switch queries in O(height) from per-leaf data alone —
	// O(L·height) storage instead of the dense L×L level matrix, which is
	// what lets layouts scale to dragonfly-sized leaf counts.
	anc, ancOff, swLevel []int32
}

// Layout returns the topology's flat layout, built with it. It is shared
// by every caller and immutable.
func (t *Topology) Layout() *Layout { return &t.layout }

// Dist returns the Eq. 4 distance between two leaves —
// float64(2 * level of the lowest common switch), the exact conversion the
// reference Hops loop performs via Topology.Distance. Dist(l, l) is 2, the
// distance between two distinct nodes on the same leaf.
func (lay *Layout) Dist(li, lj int32) float64 {
	return float64(2 * lay.commonLevel(int(li), int(lj)))
}

// PairSize returns float64(size_i + size_j), the denominator of Eq. 3's
// shared term: the integer sizes are summed first and the sum converted,
// matching the reference expression bit for bit.
func (lay *Layout) PairSize(li, lj int32) float64 {
	return float64(int(lay.LeafSizeInt[li]) + int(lay.LeafSizeInt[lj]))
}

// commonLevel returns the level of the lowest common switch of two leaves.
// The two ancestor chains share a common suffix ending at the root; the
// walk backs down that suffix to its deepest element, so the query is
// O(height) with no per-pair storage.
func (lay *Layout) commonLevel(li, lj int) int {
	if li == lj {
		return 1
	}
	a := lay.anc[lay.ancOff[li]:lay.ancOff[li+1]]
	b := lay.anc[lay.ancOff[lj]:lay.ancOff[lj+1]]
	i, j := len(a)-1, len(b)-1
	if a[i] != b[j] {
		// Disconnected forests are rejected by validate via the root walk,
		// but be defensive: treat as joined above the root.
		return int(^uint(0) >> 1)
	}
	for i > 0 && j > 0 && a[i-1] == b[j-1] {
		i--
		j--
	}
	return int(lay.swLevel[a[i]])
}

// buildLayout flattens the validated switch graph into t.layout: the
// per-node leaf and bit maps, the per-leaf sizes and word offsets, and
// each leaf's ancestor chain. O(nodes + L·height) time and space — the only
// per-topology precomputation, so building a 4096-leaf tree costs
// milliseconds where the former dense L×L level matrix cost minutes.
func (t *Topology) buildLayout() {
	l, n := len(t.Leaves), len(t.nodeNames)
	lay := Layout{
		L:           l,
		NodeLeaf:    make([]int32, n),
		LeafSize:    make([]float64, l),
		LeafSizeInt: make([]int32, l),
		LeafWordOff: make([]int32, l+1),
		NodeBit:     make([]int32, n),
		ancOff:      make([]int32, l+1),
		swLevel:     make([]int32, len(t.Switches)),
	}
	for _, s := range t.Switches {
		lay.swLevel[s.Index] = int32(s.Level)
	}
	for i, leaf := range t.Leaves {
		size := len(leaf.NodeIDs)
		lay.LeafSize[i] = float64(size)
		lay.LeafSizeInt[i] = int32(size)
		for at, id := range leaf.NodeIDs {
			lay.NodeLeaf[id] = int32(i)
			lay.NodeBit[id] = lay.LeafWordOff[i]<<6 + int32(at)
		}
		lay.LeafWordOff[i+1] = lay.LeafWordOff[i] + int32(size+63)>>6
		lay.ancOff[i] = int32(len(lay.anc))
		for s := leaf; s != nil; s = s.Parent {
			lay.anc = append(lay.anc, int32(s.Index))
		}
	}
	lay.ancOff[l] = int32(len(lay.anc))
	t.layout = lay
}
