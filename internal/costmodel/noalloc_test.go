package costmodel

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// freeRankPlacement is the selector-built form (cluster.FreeRankRuns) of a
// node list whose runs each take the first free nodes of a leaf no other
// run visits.
func freeRankPlacement(st *cluster.State, nodes []int) cluster.Placement {
	lay := st.Topology().Layout()
	var runs, skip []uint64
	for r, id := range nodes {
		if l := lay.NodeLeaf[id]; r == 0 || l != lay.NodeLeaf[nodes[r-1]] {
			runs, skip = append(runs, uint64(l)<<32|uint64(r)), append(skip, 0)
		}
	}
	return cluster.FreeRankRuns(st, append(runs, uint64(len(nodes))), skip)
}

// TestNoAllocKernels is the runtime gate of the //caws:noalloc contract
// (DESIGN.md §8): after one warm-up call grows the caller's Scratch and
// fills the schedule memo, pricing runs with zero heap allocations — a
// selector-built Intrepid placement through PlacementCostMode in every
// mode, with and without the overlay, a node list as a candidate through
// CandidateCostMode, and an allocated node list through JobCost in every
// mode, all in one Scratch. The build-time halves of the contract are
// cawslint's noalloc analyzer and scripts/noalloc-check.sh's
// escape-diagnostic intersection; this test proves the sanctioned guarded
// grow branches really are cold once warm.
func TestNoAllocKernels(t *testing.T) {
	// The replays' shape: greedy's one run per leaf, most free first, on
	// Intrepid with the last node of every leaf the list leaves busy.
	topo := topology.Intrepid()
	nodes := compileLists(topo, 5263, 24)["selector"]
	st := cluster.New(topo)
	listed := make(map[int]bool, len(nodes))
	for _, id := range nodes {
		listed[id] = true
	}
	var resident []int
	for l := 0; l < topo.NumLeaves(); l++ {
		if ln := topo.LeafNodes(l); !listed[ln[len(ln)-1]] {
			resident = append(resident, ln[len(ln)-1])
		}
	}
	if err := st.Allocate(1, cluster.CommIntensive, resident); err != nil {
		t.Fatal(err)
	}

	check := func(name string, f func()) {
		t.Helper()
		f() // warm the scratch and the schedule memo
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0 (//caws:noalloc contract)", name, allocs)
		}
	}
	sc := new(Scratch)
	for _, class := range []cluster.Class{cluster.CommIntensive, cluster.ComputeIntensive} {
		for _, mode := range allModes {
			pl := freeRankPlacement(st, nodes)
			check(fmt.Sprintf("PlacementCostMode(%v, %v)", class, mode), func() {
				if _, err := sc.PlacementCostMode(st, 99, class, &pl, collective.RD, mode); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	check("CandidateCostMode", func() {
		if _, err := sc.CandidateCostMode(st, 99, cluster.CommIntensive, nodes, collective.RD, ModeEffectiveHops); err != nil {
			t.Fatal(err)
		}
	})
	for _, mode := range allModes {
		check(fmt.Sprintf("JobCost(%v)", mode), func() {
			if _, err := sc.JobCost(st, nodes, collective.RD, mode); err != nil {
				t.Fatal(err)
			}
		})
	}
}
