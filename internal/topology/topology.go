// Package topology models tree and fat-tree cluster interconnects in the
// way SLURM's topology/tree plugin sees them: a tree of switches whose
// leaves (level-1 switches) attach compute nodes. It parses and writes
// SLURM topology.conf files, computes lowest-common-switch levels and the
// paper's node distance d(i,j) = 2 * level of the lowest common switch
// (Eq. 4), and provides generators for the machine topologies used in the
// evaluation (Intrepid-, Theta-, Mira- and IITK-like trees).
package topology

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/hostlist"
)

// Switch is one switch in the tree. Leaves have Level 1 and a non-empty
// NodeIDs list; internal switches have children. Exactly one switch (the
// root) has no parent.
type Switch struct {
	Name     string
	Level    int // 1 for leaf switches, increasing towards the root
	Parent   *Switch
	Children []*Switch
	NodeIDs  []int // node IDs attached to this leaf (leaf switches only)

	// LeafIndex is this switch's position in Topology.Leaves for leaf
	// switches, and -1 for internal switches.
	LeafIndex int

	// Index is this switch's position in Topology.Switches. Allocation
	// state keeps per-switch counters (free nodes per subtree) in flat
	// slices indexed by it.
	Index int

	// DescLeaves lists the Topology.Leaves indexes of all leaf switches in
	// this switch's subtree (itself, for a leaf). Allocation algorithms use
	// it to enumerate candidate leaves under a chosen lowest-level switch.
	DescLeaves []int
}

// IsLeaf reports whether the switch is a level-1 (leaf) switch.
func (s *Switch) IsLeaf() bool { return len(s.Children) == 0 }

// Topology is an immutable description of the cluster interconnect.
type Topology struct {
	Root     *Switch
	Leaves   []*Switch // all leaf switches, in definition order
	Switches []*Switch // all switches, leaves first then ascending level

	nodeNames []string
	nodeIndex map[string]int
	nodeLeaf  []int // node ID -> leaf index

	// leafAnc holds, for every leaf, its ancestor chain leaf → root as
	// switch indexes (leaf i's chain is leafAnc[leafAncOff[i]:leafAncOff[i+1]]);
	// swLevel is each switch's level by index. Together they answer
	// lowest-common-switch queries in O(height) from per-leaf data alone —
	// O(L·height) storage instead of the dense L×L level matrix, which is
	// what lets layouts scale to dragonfly-sized leaf counts.
	leafAnc    []int32
	leafAncOff []int32
	swLevel    []int32

	// names is the hostlist table of nodeNames, built by NameTable on first
	// use: only the daemon renders node lists.
	names struct {
		once  sync.Once
		table *hostlist.Table
	}
}

// NumNodes returns the number of compute nodes.
func (t *Topology) NumNodes() int { return len(t.nodeNames) }

// NumLeaves returns the number of leaf switches.
func (t *Topology) NumLeaves() int { return len(t.Leaves) }

// Height returns the level of the root switch (leaves are level 1).
func (t *Topology) Height() int { return t.Root.Level }

// NodeName returns the name of node id.
func (t *Topology) NodeName(id int) string { return t.nodeNames[id] }

// NameTable returns the hostlist table of the node names, indexed by node
// ID, building it on first use. It is shared by every caller of this
// topology and immutable.
func (t *Topology) NameTable() *hostlist.Table {
	t.names.once.Do(func() { t.names.table = hostlist.NewTable(t.nodeNames) })
	return t.names.table
}

// NodeID returns the id of the named node, or -1 if unknown.
func (t *Topology) NodeID(name string) int {
	id, ok := t.nodeIndex[name]
	if !ok {
		return -1
	}
	return id
}

// LeafOf returns the index (into Leaves) of the leaf switch that node id is
// attached to.
func (t *Topology) LeafOf(id int) int { return t.nodeLeaf[id] }

// LeafSize returns the number of nodes attached to leaf l. This is the
// paper's L_nodes.
func (t *Topology) LeafSize(l int) int { return len(t.Leaves[l].NodeIDs) }

// CommonSwitchLevel returns the level of the lowest common switch of the
// leaves containing nodes i and j. Two nodes on the same leaf have common
// switch level 1.
func (t *Topology) CommonSwitchLevel(i, j int) int {
	return t.LeafCommonLevel(t.nodeLeaf[i], t.nodeLeaf[j])
}

// LeafCommonLevel returns the level of the lowest common switch of two
// leaves (by leaf index). The two ancestor chains share a common suffix
// ending at the root; the walk backs down that suffix to its deepest
// element, so the query is O(height) with no per-pair storage.
func (t *Topology) LeafCommonLevel(li, lj int) int {
	if li == lj {
		return 1
	}
	a := t.leafAnc[t.leafAncOff[li]:t.leafAncOff[li+1]]
	b := t.leafAnc[t.leafAncOff[lj]:t.leafAncOff[lj+1]]
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
	return int(t.swLevel[a[i]])
}

// Distance returns the paper's d(i,j) = 2 * level of the lowest common
// switch (Eq. 4): 2 for same-leaf pairs, 4 for pairs joined at level 2, and
// so on. Distance(i,i) is defined as 0.
func (t *Topology) Distance(i, j int) int {
	if i == j {
		return 0
	}
	return 2 * t.CommonSwitchLevel(i, j)
}

// build finalises a topology from a fully linked switch graph. nodeOrder
// lists node names in ID order.
func build(root *Switch, leaves []*Switch, nodeOrder []string, nodeLeaf []int) (*Topology, error) {
	t := &Topology{
		Root:      root,
		Leaves:    leaves,
		nodeNames: nodeOrder,
		nodeLeaf:  nodeLeaf,
		nodeIndex: make(map[string]int, len(nodeOrder)),
	}
	for i, name := range nodeOrder {
		if _, dup := t.nodeIndex[name]; dup {
			return nil, fmt.Errorf("topology: duplicate node %q", name)
		}
		t.nodeIndex[name] = i
	}
	// Assign levels bottom-up and collect all switches.
	assignLevels(root)
	var all []*Switch
	var walk func(s *Switch)
	walk = func(s *Switch) {
		for _, c := range s.Children {
			walk(c)
		}
		all = append(all, s)
	}
	walk(root)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Level < all[j].Level })
	t.Switches = all
	for i, s := range all {
		s.Index = i
	}
	for i, leaf := range leaves {
		leaf.LeafIndex = i
	}
	for _, s := range all {
		if !s.IsLeaf() {
			s.LeafIndex = -1
		}
	}
	var fillLeaves func(s *Switch) []int
	fillLeaves = func(s *Switch) []int {
		if s.IsLeaf() {
			s.DescLeaves = []int{s.LeafIndex}
			return s.DescLeaves
		}
		for _, c := range s.Children {
			s.DescLeaves = append(s.DescLeaves, fillLeaves(c)...)
		}
		return s.DescLeaves
	}
	fillLeaves(root)
	if err := t.validate(); err != nil {
		return nil, err
	}
	t.buildAncestry()
	return t, nil
}

func assignLevels(s *Switch) int {
	if s.IsLeaf() {
		s.Level = 1
		return 1
	}
	max := 0
	for _, c := range s.Children {
		if l := assignLevels(c); l > max {
			max = l
		}
	}
	s.Level = max + 1
	return s.Level
}

func (t *Topology) validate() error {
	if t.Root == nil {
		return fmt.Errorf("topology: no root switch")
	}
	if len(t.Leaves) == 0 {
		return fmt.Errorf("topology: no leaf switches")
	}
	seen := make(map[string]bool, len(t.Switches))
	for _, s := range t.Switches {
		if seen[s.Name] {
			return fmt.Errorf("topology: duplicate switch %q", s.Name)
		}
		seen[s.Name] = true
		if s.IsLeaf() && len(s.NodeIDs) == 0 {
			return fmt.Errorf("topology: leaf switch %q has no nodes", s.Name)
		}
		if !s.IsLeaf() && len(s.NodeIDs) != 0 {
			return fmt.Errorf("topology: internal switch %q lists nodes", s.Name)
		}
	}
	covered := 0
	for _, leaf := range t.Leaves {
		covered += len(leaf.NodeIDs)
	}
	if covered != len(t.nodeNames) {
		return fmt.Errorf("topology: %d nodes named but %d attached to leaves",
			len(t.nodeNames), covered)
	}
	return nil
}

// buildAncestry flattens each leaf's parent chain into the per-leaf
// ancestor arrays LeafCommonLevel walks. O(L·height) time and space —
// the only per-topology precomputation, so building a 4096-leaf tree costs
// milliseconds where the former dense L×L level matrix cost minutes.
func (t *Topology) buildAncestry() {
	t.swLevel = make([]int32, len(t.Switches))
	for _, s := range t.Switches {
		t.swLevel[s.Index] = int32(s.Level)
	}
	t.leafAncOff = make([]int32, len(t.Leaves)+1)
	for i, leaf := range t.Leaves {
		t.leafAncOff[i] = int32(len(t.leafAnc))
		for s := leaf; s != nil; s = s.Parent {
			t.leafAnc = append(t.leafAnc, int32(s.Index))
		}
	}
	t.leafAncOff[len(t.Leaves)] = int32(len(t.leafAnc))
}

// LeafNodes returns the node IDs attached to leaf l. The returned slice is
// owned by the topology and must not be modified.
func (t *Topology) LeafNodes(l int) []int { return t.Leaves[l].NodeIDs }

// NodesPerLeaf returns the minimum and maximum leaf sizes.
func (t *Topology) NodesPerLeaf() (min, max int) {
	min, max = int(^uint(0)>>1), 0
	for _, leaf := range t.Leaves {
		n := len(leaf.NodeIDs)
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	return min, max
}
