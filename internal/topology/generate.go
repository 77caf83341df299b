package topology

import "fmt"

// Spec describes a regular tree to generate. Fanouts lists, from the level
// just above the leaves up to the root, how many children each switch at
// that level has. A two-level tree with k leaves is Fanouts: []int{k}; a
// three-level tree with 4 pods of 8 leaves is Fanouts: []int{8, 4}.
type Spec struct {
	NodesPerLeaf int
	Fanouts      []int
	// UnevenLast, if positive, overrides the node count of the final leaf so
	// the total node count need not be a multiple of NodesPerLeaf.
	UnevenLast int
	NodePrefix string // default "n"
}

// Generate builds a regular tree topology from a Spec. Nodes are named
// n0..n{N-1} (or with Spec.NodePrefix) and switches s0.. in breadth-first
// order starting at the leaves.
func Generate(spec Spec) (*Topology, error) {
	if spec.NodesPerLeaf <= 0 {
		return nil, fmt.Errorf("topology: NodesPerLeaf must be positive, got %d", spec.NodesPerLeaf)
	}
	if len(spec.Fanouts) == 0 {
		return nil, fmt.Errorf("topology: at least one fanout level required")
	}
	prefix := spec.NodePrefix
	if prefix == "" {
		prefix = "n"
	}
	numLeaves := 1
	for i, f := range spec.Fanouts {
		if f <= 0 {
			return nil, fmt.Errorf("topology: fanout[%d] must be positive, got %d", i, f)
		}
		numLeaves *= f
	}
	switchID := 0
	nextSwitch := func() string {
		name := fmt.Sprintf("s%d", switchID)
		switchID++
		return name
	}

	numNodes := numLeaves * spec.NodesPerLeaf
	if spec.UnevenLast > 0 {
		numNodes += spec.UnevenLast - spec.NodesPerLeaf
	}
	ids := make([]int, numNodes)
	for id := range ids {
		ids[id] = id
	}
	leaves := make([]*Switch, numLeaves)
	for l := range leaves {
		lo, hi := l*spec.NodesPerLeaf, (l+1)*spec.NodesPerLeaf
		if l == numLeaves-1 {
			hi = numNodes
		}
		leaves[l] = &Switch{Name: nextSwitch(), NodeIDs: ids[lo:hi:hi]}
	}

	level := leaves
	for _, fanout := range spec.Fanouts {
		if len(level)%fanout != 0 {
			return nil, fmt.Errorf("topology: %d switches not divisible by fanout %d", len(level), fanout)
		}
		var next []*Switch
		for i := 0; i < len(level); i += fanout {
			parent := &Switch{Name: nextSwitch()}
			for _, c := range level[i : i+fanout] {
				c.Parent = parent
				parent.Children = append(parent.Children, c)
			}
			next = append(next, parent)
		}
		level = next
	}
	if len(level) != 1 {
		return nil, fmt.Errorf("topology: fanouts leave %d roots", len(level))
	}
	t := &Topology{Root: level[0], Leaves: leaves}
	t.names.prefix = prefix
	return t.build()
}

// MustGenerate is Generate but panics on error; for presets and tests.
func MustGenerate(spec Spec) *Topology {
	t, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// The presets below model the machines in the paper's evaluation (§5.1–5.2).
// The large systems use 330–384 nodes per leaf switch, matching the paper's
// "tree topology with 330-380 nodes/switch" obtained from LBNL; the IITK
// departmental topology has 16 nodes per leaf.

// Theta returns a Theta-like topology: 4,392 nodes as 12 leaves of 366.
func Theta() *Topology {
	return MustGenerate(Spec{NodesPerLeaf: 366, Fanouts: []int{12}})
}

// Intrepid returns an Intrepid-like topology: 40,960 nodes as 128 leaves of
// 320, grouped 16 leaves per mid-level switch (three-level tree).
func Intrepid() *Topology {
	return MustGenerate(Spec{NodesPerLeaf: 320, Fanouts: []int{16, 8}})
}

// Mira returns a Mira-like topology: 49,152 nodes as 128 leaves of 384,
// grouped 16 leaves per mid-level switch (three-level tree).
func Mira() *Topology {
	return MustGenerate(Spec{NodesPerLeaf: 384, Fanouts: []int{16, 8}})
}

// Cori returns a Cori-like topology (the paper thanks NERSC for the Cori
// topology file; "the latter has >= 300 nodes/leaf switch"): 9,688 nodes
// as 28 leaves of 346.
func Cori() *Topology {
	return MustGenerate(Spec{NodesPerLeaf: 346, Fanouts: []int{28}})
}

// IITK returns the departmental-cluster shape used for the paper's
// motivating experiment and the HPC2010 topology: 16 nodes per leaf.
func IITK(leaves int) *Topology {
	return MustGenerate(Spec{NodesPerLeaf: 16, Fanouts: []int{leaves}})
}

// PaperExample returns the 8-node, 2-leaf fat tree of Figure 2
// (s0: n0-n3, s1: n4-n7, s2 on top).
func PaperExample() *Topology {
	return MustGenerate(Spec{NodesPerLeaf: 4, Fanouts: []int{2}})
}

// Departmental returns the 50-node two-switch tree of the Figure 1
// experiment: two leaves of 25 nodes connected by a top switch.
func Departmental() *Topology {
	return MustGenerate(Spec{NodesPerLeaf: 25, Fanouts: []int{2}})
}
