package sim

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/mapping"
	"repro/internal/topology"
	"repro/internal/workload"
)

// loadedState is a machine with every leaf busy on a different prefix and
// a resident communication-intensive job, so selectors disagree and costs
// are not trivial.
func loadedState(t testing.TB, topo *topology.Topology) *cluster.State {
	t.Helper()
	st := cluster.New(topo)
	var busy, comm []int
	for l := 0; l < topo.NumLeaves(); l++ {
		ids := topo.LeafNodes(l)
		k := (l * 7) % min(61, len(ids)-1)
		busy = append(busy, ids[:k]...)
		if l%3 == 0 {
			comm = append(comm, ids[len(ids)-1])
		}
	}
	if err := st.Allocate(9000, cluster.ComputeIntensive, busy); err != nil {
		t.Fatal(err)
	}
	if err := st.Allocate(9001, cluster.CommIntensive, comm); err != nil {
		t.Fatal(err)
	}
	return st
}

func commJob(id, nodes int) workload.Job {
	return workload.Job{ID: cluster.JobID(id), Nodes: nodes, Runtime: 1000, Class: cluster.CommIntensive,
		Mix: collective.Mix{ComputeFrac: 0.4, Comms: []collective.Component{{Pattern: collective.RHVD, Frac: 0.4}, {Pattern: collective.Ring, Frac: 0.2}}}}
}

// TestPlaceJobPlacesWhatSelectLists pins the one placement path: PlaceJob's
// unlisted placement names exactly the selector's node list when asked and
// commits to that allocation, and with remap PlaceJobMapped's results are
// bit-identical to the same steps taken over bare node lists.
func TestPlaceJobPlacesWhatSelectLists(t *testing.T) {
	topo := topology.Theta()
	st := loadedState(t, topo)
	def := core.MustNew(core.Default)
	for _, alg := range []core.Algorithm{core.Default, core.Greedy, core.Balanced, core.Adaptive} {
		sel := core.MustNew(alg)
		for _, j := range []workload.Job{commJob(1, 700), commJob(2, 64),
			{ID: 3, Nodes: 300, Runtime: 50, Class: cluster.ComputeIntensive}} {
			pattern, _ := j.Mix.PrimaryPattern()
			req := core.Request{Job: j.ID, Nodes: j.Nodes, Class: j.Class, Pattern: pattern}
			want, err := sel.Select(st, req)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := PlaceJob(st, sel, def, j, costmodel.ModeEffectiveHops)
			if err != nil {
				t.Fatal(err)
			}
			if got := pl.Placed.Nodes(); !slices.Equal(got, want) {
				t.Fatalf("%v job %d: PlaceJob lists %v, Select %v", alg, j.ID, got, want)
			}
			if err := st.AllocatePlacement(j.ID, j.Class, &pl.Placed); err != nil {
				t.Fatal(err)
			}
			sorted := slices.Clone(want)
			slices.Sort(sorted)
			if got := st.Allocation(j.ID).Nodes(); !slices.Equal(got, sorted) {
				t.Errorf("%v job %d: the unlisted placement committed %v, want %v", alg, j.ID, got, sorted)
			}
			if err := st.Release(j.ID); err != nil {
				t.Fatal(err)
			}

			if j.Class != cluster.CommIntensive {
				continue
			}
			// Remapped: the same steps over bare lists.
			got, err := PlaceJobMapped(st, sel, def, j, costmodel.ModeEffectiveHops, true)
			if err != nil {
				t.Fatal(err)
			}
			mapped, _, err := mapping.Remap(st, j.ID, j.Class, want, pattern, mapping.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defNodes, err := def.Select(st, req)
			if err != nil {
				t.Fatal(err)
			}
			var ratios []float64
			var cost, ref float64
			for _, c := range j.Mix.Comms {
				x, err := costmodel.CandidateCostMode(st, j.ID, j.Class, mapped, c.Pattern, costmodel.ModeEffectiveHops)
				if err != nil {
					t.Fatal(err)
				}
				d, err := costmodel.CandidateCostMode(st, j.ID, j.Class, defNodes, c.Pattern, costmodel.ModeEffectiveHops)
				if err != nil {
					t.Fatal(err)
				}
				ratios = append(ratios, costmodel.RuntimeRatio(x, d))
				if c.Pattern == pattern {
					cost, ref = x, d
				}
			}
			exec, err := costmodel.ModifiedRuntimeMix(j.Runtime, j.Mix, ratios)
			if err != nil {
				t.Fatal(err)
			}
			if nodes := got.Placed.Nodes(); !slices.Equal(nodes, mapped) || math.Float64bits(got.Cost) != math.Float64bits(cost) ||
				math.Float64bits(got.RefCost) != math.Float64bits(ref) || math.Float64bits(got.Exec) != math.Float64bits(max(exec, 1)) {
				t.Errorf("%v job %d remapped: cost %v ref %v exec %v, over bare lists %v %v %v (nodes equal: %v)",
					alg, j.ID, got.Cost, got.RefCost, got.Exec, cost, ref, exec, slices.Equal(nodes, mapped))
			}
		}
	}
}

// TestWideJobAllocatesOneList is the end-to-end pin of the free-rank form
// and the leaf masks: one adaptive 32,768-node communication-intensive job on
// Intrepid, placed (two candidates and the default reference selected,
// validated and priced) and committed the way the engine does it, allocates
// less than an eighth of ONE node list — nobody lists the nodes any more,
// the allocation holds them as masks — and Allocation.Nodes() still names
// them all.
func TestWideJobAllocatesOneList(t *testing.T) {
	const nodes = 32768
	st := loadedState(t, topology.Intrepid()) // 128 leaves of 320, up to 60 busy on each
	sel, def := core.MustNew(core.Adaptive), core.MustNew(core.Default)
	j := workload.Job{ID: 1, Nodes: nodes, Runtime: 3600, Class: cluster.CommIntensive,
		Mix: collective.Mix{ComputeFrac: 0.5, Comms: []collective.Component{{Pattern: collective.RD, Frac: 0.5}}}}
	start := func() {
		pl, err := PlaceJob(st, sel, def, j, costmodel.ModeEffectiveHops)
		if err == nil {
			err = st.AllocatePlacement(j.ID, j.Class, &pl.Placed)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// The first round compiles the schedules and fills the pools; a collection
	// between rounds may empty a pool again, so the least of a few rounds is
	// what one start costs.
	got, limit := uint64(math.MaxUint64), uint64(8*nodes/8)
	for round := 0; round < 5; round++ {
		if round > 0 {
			if err := st.Release(j.ID); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d bytes for one %d-node job (one list is %d)", got, nodes, 8*nodes)
	if got >= limit && !raceEnabled { // the race detector makes sync.Pool drop scratches at random
		t.Errorf("placing and committing a %d-node job allocated %d bytes, want < %d (an eighth of a node list)", nodes, got, limit)
	}
	held := st.Allocation(j.ID).Nodes()
	if len(held) != nodes || !slices.IsSorted(held) || slices.ContainsFunc(held, st.NodeFree) {
		t.Errorf("allocation lists %d nodes (ascending %v), want %d busy ones", len(held), slices.IsSorted(held), nodes)
	}
}
