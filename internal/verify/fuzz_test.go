package verify

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
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
		if err := Differential(spec, []RunConfig{cfg}, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzLayoutScale hands fuzzer-chosen machine shapes — leaf counts on
// both sides of 128 leaves, two- and three-level
// trees, varying leaf widths — to the fast/reference parity check: random
// resident load, then bit-identical JobCost/CandidateCostMode (all modes) on
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
		checkFastRefBitIdentical(t, new(costmodel.Scratch), st, live, fmt.Sprintf("npl=%d fanouts=%v", npl, fanouts), 0)
	})
}

// scrambled returns the node list in a random rank order — every leaf run
// about one rank long, the shape only rank remapping produces and the one
// the run walk gains nothing on — and, with repeat, one node id listed
// twice, which pricing must hand to the reference loop. Negative fuzz seeds select it (even ones with the repeat); such
// lists are only costed, never allocated.
func scrambled(nodes []int, rng *rand.Rand, repeat bool) []int {
	out := slices.Clone(nodes)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if repeat {
		out[len(out)-1] = out[0]
	}
	return out
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
		if err := Differential(spec, []RunConfig{cfg}, 0); err != nil {
			t.Fatal(err)
		}
	})
}
