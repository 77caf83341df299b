package cluster

import (
	"testing"

	"repro/internal/topology"
)

// TestLayoutShared pins that a layout belongs to its topology: two
// topologies of one shape do not share one, so a state's per-leaf bitmaps
// and pricing never read another machine's arrays.
func TestLayoutShared(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{5}})
	other := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{5}})
	if New(topo).lay == New(other).lay {
		t.Error("distinct topologies share a layout")
	}
}
