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

// overBareLists is PlaceJob's runtime model worked over bare node lists,
// every component of the job priced afresh on nodes and on the reference
// defNodes: the oracle of Cost, RefCost, Exec and Ratio.
func overBareLists(t *testing.T, st *cluster.State, j workload.Job, nodes, defNodes []int, mode costmodel.Mode) Placement {
	t.Helper()
	pattern, _ := j.Mix.PrimaryPattern()
	want := Placement{Ratio: 1}
	var ratios []float64
	total, weight := 0.0, 0.0
	for _, c := range j.Mix.Comms {
		x, err := costmodel.CandidateCostMode(st, j.ID, j.Class, nodes, c.Pattern, mode)
		if err != nil {
			t.Fatal(err)
		}
		d, err := costmodel.CandidateCostMode(st, j.ID, j.Class, defNodes, c.Pattern, mode)
		if err != nil {
			t.Fatal(err)
		}
		r := costmodel.RuntimeRatio(x, d)
		ratios = append(ratios, r)
		total += r * c.Frac
		weight += c.Frac
		if c.Pattern == pattern {
			want.Cost, want.RefCost = x, d
		}
	}
	exec, err := costmodel.ModifiedRuntimeMix(j.Runtime, j.Mix, ratios)
	if err != nil {
		t.Fatal(err)
	}
	want.Exec, want.Ratio = max(exec, 1), total/weight
	return want
}

// sameModel reports whether two placements carry bit-identical results.
func sameModel(a, b Placement) bool {
	return math.Float64bits(a.Cost) == math.Float64bits(b.Cost) && math.Float64bits(a.RefCost) == math.Float64bits(b.RefCost) &&
		math.Float64bits(a.Exec) == math.Float64bits(b.Exec) && math.Float64bits(a.Ratio) == math.Float64bits(b.Ratio)
}

// TestPlaceJobPlacesWhatSelectLists pins the one placement path: PlaceJob's
// unlisted placement names exactly the selector's node list when asked and
// commits to that allocation, and its results are bit-identical to the same
// steps taken over bare node lists, with or without remap. That covers the
// prices PlaceJob does not compute: adaptive's price of its pick, reused
// only for the primary pattern in effective hops, and the default
// selection serving as its own reference. The single-leaf job's candidates
// coincide (adaptive prices once), the wide job's differ.
func TestPlaceJobPlacesWhatSelectLists(t *testing.T) {
	topo := topology.Theta()
	st := loadedState(t, topo)
	def := core.MustNew(core.Default)
	narrow, wide := commJob(2, 64), commJob(1, 700)
	for _, c := range []struct {
		j    workload.Job
		same bool
	}{{narrow, true}, {wide, false}} {
		pattern, _ := c.j.Mix.PrimaryPattern()
		req := core.Request{Job: c.j.ID, Nodes: c.j.Nodes, Class: c.j.Class, Pattern: pattern}
		g, _ := core.MustNew(core.Greedy).Select(st, req)
		b, _ := core.MustNew(core.Balanced).Select(st, req)
		if slices.Equal(g, b) != c.same {
			t.Fatalf("job %d: greedy and balanced coincide: %v, want %v", c.j.ID, !c.same, c.same)
		}
	}
	for _, alg := range []core.Algorithm{core.Default, core.Greedy, core.Balanced, core.Adaptive} {
		sel := core.MustNew(alg)
		for _, j := range []workload.Job{wide, narrow,
			{ID: 3, Nodes: 300, Runtime: 50, Class: cluster.ComputeIntensive}} {
			pattern, _ := j.Mix.PrimaryPattern()
			req := core.Request{Job: j.ID, Nodes: j.Nodes, Class: j.Class, Pattern: pattern}
			want, err := sel.Select(st, req)
			if err != nil {
				t.Fatal(err)
			}
			defNodes, err := def.Select(st, req)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []costmodel.Mode{costmodel.ModeEffectiveHops, costmodel.ModeHopBytes, costmodel.ModeDistanceOnly} {
				pl, err := PlaceJob(new(core.Scratch), st, sel, ReferenceSelector(alg), j, mode, false)
				if err != nil {
					t.Fatal(err)
				}
				if got := pl.Placed.Nodes(); !slices.Equal(got, want) {
					t.Fatalf("%v job %d: PlaceJob lists %v, Select %v", alg, j.ID, got, want)
				}
				if j.Class == cluster.CommIntensive {
					if oracle := overBareLists(t, st, j, want, defNodes, mode); !sameModel(pl, oracle) {
						t.Errorf("%v job %d %v: cost %v ref %v exec %v ratio %v, over bare lists %v %v %v %v",
							alg, j.ID, mode, pl.Cost, pl.RefCost, pl.Exec, pl.Ratio, oracle.Cost, oracle.RefCost, oracle.Exec, oracle.Ratio)
					}
				}
			}
			pl, err := PlaceJob(new(core.Scratch), st, sel, def, j, costmodel.ModeEffectiveHops, false)
			if err != nil {
				t.Fatal(err)
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
			for _, ref := range []core.Selector{def, ReferenceSelector(alg)} {
				got, err := PlaceJob(new(core.Scratch), st, sel, ref, j, costmodel.ModeEffectiveHops, true)
				if err != nil {
					t.Fatal(err)
				}
				mapped, _, err := mapping.Remap(st, j.ID, j.Class, want, pattern, mapping.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if oracle := overBareLists(t, st, j, mapped, defNodes, costmodel.ModeEffectiveHops); !slices.Equal(got.Placed.Nodes(), mapped) || !sameModel(got, oracle) {
					t.Errorf("%v job %d remapped: cost %v ref %v exec %v, over bare lists %v %v %v (nodes equal: %v)",
						alg, j.ID, got.Cost, got.RefCost, got.Exec, oracle.Cost, oracle.RefCost, oracle.Exec, slices.Equal(got.Placed.Nodes(), mapped))
				}
			}
		}
	}
	// The pin above would let hop-bytes take adaptive's effective-hops price
	// only if the two were equal; they are not.
	req := core.Request{Job: wide.ID, Nodes: wide.Nodes, Class: wide.Class, Pattern: collective.RHVD}
	sc := new(core.Scratch)
	pl, price, err := core.Place(core.MustNew(core.Adaptive), st, req, sc)
	if err != nil || !price.OK {
		t.Fatalf("adaptive reports no price (%v)", err)
	}
	hb, err := sc.Pricing().PlacementCostMode(st, wide.ID, wide.Class, &pl, collective.RHVD, costmodel.ModeHopBytes)
	if err != nil || hb == price.Cost {
		t.Errorf("RHVD costs %v in hop-bytes (%v), as much as adaptive's effective-hops price %v", hb, err, price.Cost)
	}
}

// TestPlaceJobPricesEachPlacementOnce counts pricings on a reference state,
// where each one allocates and releases the job (two generation bumps).
// Adaptive prices coinciding candidates once and PlaceJob reuses the
// winner's price; distinct candidates cost two pricings, plus one for a
// default reference elsewhere. Default prices its selection once, serving
// as both costs.
func TestPlaceJobPricesEachPlacementOnce(t *testing.T) {
	st := loadedState(t, topology.Theta()).CloneAs(true)
	job := func(id, nodes int) workload.Job {
		return workload.Job{ID: cluster.JobID(id), Nodes: nodes, Runtime: 1000, Class: cluster.CommIntensive,
			Mix: collective.Mix{ComputeFrac: 0.5, Comms: []collective.Component{{Pattern: collective.RHVD, Frac: 0.5}}}}
	}
	pricings := func(alg core.Algorithm, j workload.Job) uint64 {
		t.Helper()
		gen := st.Generation()
		if _, err := PlaceJob(new(core.Scratch), st, core.MustNew(alg), ReferenceSelector(alg), j, costmodel.ModeEffectiveHops, false); err != nil {
			t.Fatal(err)
		}
		return (st.Generation() - gen) / 2
	}
	if got := pricings(core.Adaptive, job(1, 64)); got != 1 {
		t.Errorf("adaptive single-leaf job: %d pricings, want 1", got)
	}
	if got := pricings(core.Default, job(2, 64)); got != 1 {
		t.Errorf("default single-leaf job: %d pricings, want 1", got)
	}
	wide := job(3, 700)
	req := core.Request{Job: wide.ID, Nodes: wide.Nodes, Class: wide.Class, Pattern: collective.RHVD}
	g, _ := core.MustNew(core.Greedy).Select(st, req)
	b, _ := core.MustNew(core.Balanced).Select(st, req)
	won, _ := core.MustNew(core.Adaptive).Select(st, req)
	d, _ := core.MustNew(core.Default).Select(st, req)
	if slices.Equal(g, b) {
		t.Fatal("the wide job's candidates coincide")
	}
	want := uint64(2)
	if !slices.Equal(won, d) {
		want++
	}
	if got := pricings(core.Adaptive, wide); got != want {
		t.Errorf("adaptive wide job: %d pricings, want %d", got, want)
	}
}

// TestWideJobAllocatesOneList is the end-to-end pin of the free-rank form
// and the leaf masks: one adaptive 32,768-node communication-intensive job on
// Intrepid, placed (two candidates and the default reference selected,
// validated and priced in the engine's scratch) and committed the way the
// engine does it, allocates less than an eighth of ONE node list — nobody lists the nodes any more,
// the allocation holds them as masks — and Allocation.Nodes() still names
// them all.
func TestWideJobAllocatesOneList(t *testing.T) {
	const nodes = 32768
	st := loadedState(t, topology.Intrepid()) // 128 leaves of 320, up to 60 busy on each
	sel, def, sc := core.MustNew(core.Adaptive), core.MustNew(core.Default), new(core.Scratch)
	j := workload.Job{ID: 1, Nodes: nodes, Runtime: 3600, Class: cluster.CommIntensive,
		Mix: collective.Mix{ComputeFrac: 0.5, Comms: []collective.Component{{Pattern: collective.RD, Frac: 0.5}}}}
	start := func() {
		pl, err := PlaceJob(sc, st, sel, def, j, costmodel.ModeEffectiveHops, false)
		if err == nil {
			err = st.AllocatePlacement(j.ID, j.Class, &pl.Placed)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// The first round compiles the schedules and grows the scratch, so the
	// least of a few rounds is what one start costs.
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
	if got >= limit {
		t.Errorf("placing and committing a %d-node job allocated %d bytes, want < %d (an eighth of a node list)", nodes, got, limit)
	}
	held := st.Allocation(j.ID).Nodes()
	if len(held) != nodes || !slices.IsSorted(held) || slices.ContainsFunc(held, st.NodeFree) {
		t.Errorf("allocation lists %d nodes (ascending %v), want %d busy ones", len(held), slices.IsSorted(held), nodes)
	}
}

// TestWarmEnginePlacementAllocatesNothing pins the engine's placement path
// at zero allocations: a communication-intensive job placed by adaptive in
// the engine's own scratch — both candidates selected, validated and
// priced, the default reference selected and priced for Eq. 7 — on Theta
// and on Intrepid, at a width each machine's traces run, once the scratch
// and the schedule memo are warm. The commit is not part of it: the
// allocation it records is the cluster's.
func TestWarmEnginePlacementAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name  string
		topo  *topology.Topology
		nodes int
	}{{"Theta", topology.Theta(), 400}, {"Intrepid", topology.Intrepid(), 4096}} {
		st := loadedState(t, c.topo)
		sel, defSel, sc := core.MustNew(core.Adaptive), ReferenceSelector(core.Adaptive), new(core.Scratch)
		j := workload.Job{ID: 1, Nodes: c.nodes, Runtime: 3600, Class: cluster.CommIntensive,
			Mix: collective.SinglePattern(collective.RHVD, 0.5)}
		place := func() {
			if _, err := PlaceJob(sc, st, sel, defSel, j, costmodel.ModeEffectiveHops, false); err != nil {
				t.Fatal(err)
			}
		}
		// The widths are where the candidates differ and the reference is
		// elsewhere, so every pricing runs.
		if pl, err := PlaceJob(sc, st, sel, defSel, j, costmodel.ModeEffectiveHops, false); err != nil || pl.Cost == pl.RefCost {
			t.Fatalf("%s: cost %v, reference %v (%v): the fixture no longer prices a distinct reference", c.name, pl.Cost, pl.RefCost, err)
		}
		if allocs := testing.AllocsPerRun(20, place); allocs != 0 {
			t.Errorf("%s: a warm adaptive placement of %d nodes allocated %.1f times, want 0", c.name, c.nodes, allocs)
		}
	}
}
