package verify

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// FuzzRunContinuous feeds the differential harness fuzzer-chosen (trace
// seed, trace length, matrix cell) triples: one full simulation per input,
// audited by sim.ValidateResultConfig, conservation-checked, and — when
// the cell is a metamorphic representative — replayed shifted. The corpus
// seeds cover both remap cells and both backfill settings.
func FuzzRunContinuous(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(7), uint8(24), uint8(17))
	f.Add(int64(42), uint8(40), uint8(90)) // remap cell
	f.Add(int64(1031), uint8(12), uint8(46))
	f.Fuzz(func(t *testing.T, seed int64, jobs, cell uint8) {
		spec := DefaultSpec(seed)
		if jobs > 0 {
			spec.Jobs = 1 + int(jobs)%60
		}
		configs := ConfigsFor(spec)
		cfg := configs[int(cell)%len(configs)]
		if err := DifferentialConfigs(spec, []RunConfig{cfg}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzLayoutScale hands fuzzer-chosen machine shapes — leaf counts on
// both sides of 128 leaves, two- and three-level
// trees, varying leaf widths — to the fast/reference parity check: random
// resident load, then bit-identical JobCost/CandidateCost (all modes) on
// cross-machine jobs. This is the cross-scale parity property with the
// shape under fuzzer control instead of a fixed list; the corpus seeds
// pin both threshold neighbours and a far-past-threshold shape.
func FuzzLayoutScale(f *testing.F) {
	f.Add(uint16(126), uint8(1), uint8(2), int64(1))
	f.Add(uint16(129), uint8(1), uint8(2), int64(2))
	f.Add(uint16(64), uint8(3), uint8(1), int64(3)) // 192 leaves, three-level
	f.Add(uint16(500), uint8(1), uint8(2), int64(4))
	f.Add(uint16(129), uint8(3), uint8(2), int64(-1)) // permuted ranks
	f.Add(uint16(64), uint8(1), uint8(3), int64(-2))  // permuted, one node id repeated
	f.Fuzz(func(t *testing.T, leavesRaw uint16, podsRaw, nplRaw uint8, seed int64) {
		leaves := 2 + int(leavesRaw)%600
		pods := 1 + int(podsRaw)%3
		npl := 1 + int(nplRaw)%3
		fanouts := []int{leaves}
		if pods > 1 {
			fanouts = []int{leaves, pods}
		}
		topo, err := topology.Generate(topology.Spec{NodesPerLeaf: npl, Fanouts: fanouts})
		if err != nil {
			t.Skip() // degenerate shape
		}
		st := cluster.New(topo)
		rng := rand.New(rand.NewSource(seed))

		// Random resident load: a few comm jobs on scattered nodes.
		var live []activeJob
		patterns := []collective.Pattern{collective.RD, collective.Ring, collective.Binomial}
		for j := 0; j < 3; j++ {
			n := 2 + rng.Intn(15)
			var nodes []int
			for id := 0; id < topo.NumNodes() && len(nodes) < n; id++ {
				if st.NodeFree(id) && rng.Intn(4) == 0 {
					nodes = append(nodes, id)
				}
			}
			if len(nodes) < 2 {
				continue
			}
			id := cluster.JobID(100 + j)
			if err := st.Allocate(id, cluster.CommIntensive, nodes); err != nil {
				t.Fatalf("allocate: %v", err)
			}
			live = append(live, activeJob{id, nodes, patterns[j%len(patterns)]})
		}
		if seed < 0 && len(live) > 0 {
			live = append(live, activeJob{200, scrambled(live[0].nodes, rng, seed%2 == 0), live[0].pattern})
		}
		checkFastRefBitIdentical(t, st, live, fmt.Sprintf("npl=%d fanouts=%v", npl, fanouts), 0)
	})
}

// scrambled returns the node list in a random rank order — every leaf run
// about one rank long, the shape only rank remapping produces and the one
// the run walk gains nothing on — and, with repeat, one node id listed
// twice, which pricing must hand to the reference loops. Negative fuzz seeds select it (even ones with the repeat); such
// lists are only costed, never allocated.
func scrambled(nodes []int, rng *rand.Rand, repeat bool) []int {
	out := slices.Clone(nodes)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if repeat {
		out[len(out)-1] = out[0]
	}
	return out
}

// FuzzSubtreeAggregation hands fuzzer-chosen tree shapes and wide job
// widths (tens to a few hundred touched leaves) to the parity check through
// the entry points: the fast path and the node-pair reference loops must
// produce bit-identical job and candidate costs on the same randomly loaded
// state (costmodel.FuzzSubtreeAggregation draws the same inputs inside the
// package). The random residents perturb per-leaf comm counters, so the
// touched leaves' contention differs.
func FuzzSubtreeAggregation(f *testing.F) {
	f.Add(uint8(40), uint8(4), uint8(1), int8(-4), int64(1))
	f.Add(uint8(40), uint8(4), uint8(1), int8(0), int64(2))
	f.Add(uint8(40), uint8(4), uint8(1), int8(8), int64(3))
	f.Add(uint8(60), uint8(1), uint8(2), int8(16), int64(4)) // two-level: no agg level
	f.Add(uint8(33), uint8(5), uint8(2), int8(40), int64(5))
	f.Add(uint8(40), uint8(4), uint8(1), int8(8), int64(-1)) // permuted ranks
	f.Add(uint8(40), uint8(4), uint8(2), int8(8), int64(-2)) // permuted, one node id repeated
	f.Fuzz(func(t *testing.T, leavesRaw, podsRaw, nplRaw uint8, widthDelta int8, seed int64) {
		leavesPerPod := 8 + int(leavesRaw)%96
		pods := 1 + int(podsRaw)%5
		npl := 1 + int(nplRaw)%3
		fanouts := []int{leavesPerPod}
		if pods > 1 {
			fanouts = []int{leavesPerPod, pods}
		}
		topo, err := topology.Generate(topology.Spec{NodesPerLeaf: npl, Fanouts: fanouts})
		if err != nil {
			t.Skip() // degenerate shape
		}
		st := cluster.New(topo)
		rng := rand.New(rand.NewSource(seed))

		// Random resident load first, so several leaves carry extra comm.
		patterns := []collective.Pattern{collective.RD, collective.Ring, collective.Binomial}
		for j := 0; j < 3; j++ {
			var nodes []int
			for id := 0; id < topo.NumNodes() && len(nodes) < 2+rng.Intn(6); id++ {
				if st.NodeFree(id) && rng.Intn(5) == 0 {
					nodes = append(nodes, id)
				}
			}
			if len(nodes) < 2 {
				continue
			}
			if err := st.Allocate(cluster.JobID(100+j), cluster.CommIntensive, nodes); err != nil {
				t.Fatalf("resident allocate: %v", err)
			}
		}

		// The wide job's nodes stripe round-robin across leaves, so touched
		// leaves ≈ width.
		width := 96 + int(widthDelta)
		var wide []int
		leaves := topo.NumLeaves()
		for k := 0; k < topo.NumNodes() && len(wide) < width; k++ {
			l := k % leaves
			for _, id := range topo.LeafNodes(l) {
				if st.NodeFree(id) && !slices.Contains(wide, id) {
					wide = append(wide, id)
					break
				}
			}
		}
		if len(wide) < 2 {
			t.Skip() // machine too small/loaded for any job
		}
		if seed < 0 {
			wide = scrambled(wide, rng, seed%2 == 0)
		}
		pat := patterns[uint64(seed)%uint64(len(patterns))]
		live := []activeJob{{id: 300, nodes: wide, pattern: pat}}
		checkFastRefBitIdentical(t, st, live, fmt.Sprintf("wide npl=%d fanouts=%v width=%d", npl, fanouts, len(wide)), 0)
	})
}

// FuzzFaultTrace hands fuzzer-chosen fault parameters (outage count, seed
// perturbation, matrix cell) to a single differential cell with faults
// forced on: the generated fault trace must validate, the run must pass
// the full fault-aware audit, and the zero-failure metamorphic identity
// must hold for the paired fault-free spec.
func FuzzFaultTrace(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0))
	f.Add(int64(17), uint8(1), uint8(2))
	f.Add(int64(99), uint8(8), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, outages, cell uint8) {
		spec := DefaultSpec(seed)
		spec.Jobs = 1 + spec.Jobs%25 // keep each input cheap
		spec.Faults = 1 + int(outages)%10
		topo, trace, err := spec.Build()
		if err != nil {
			t.Skip() // degenerate spec dimensions
		}
		ftrace := spec.BuildFaults(topo, trace)
		if err := ftrace.Validate(topo.NumNodes()); err != nil {
			t.Fatalf("generated fault trace invalid: %v", err)
		}
		fc := FaultConfigs()
		cfg := fc[int(cell)%len(fc)]
		if err := DifferentialConfigs(spec, []RunConfig{cfg}); err != nil {
			t.Fatal(err)
		}
	})
}
