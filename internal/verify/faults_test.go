package verify

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestConfigsForFaultFreeIsBaseMatrix(t *testing.T) {
	spec := DefaultSpec(1)
	spec.Faults = 0
	if got, want := ConfigsFor(spec), AllConfigs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fault-free spec changed the matrix: %d cells vs %d", len(got), len(want))
	}
}

func TestConfigsForAppendsFaultCells(t *testing.T) {
	spec := DefaultSpec(1)
	spec.Faults = 2
	configs := ConfigsFor(spec)
	if got, want := len(configs), len(AllConfigs())+len(FaultConfigs()); got != want {
		t.Fatalf("matrix has %d cells, want %d", got, want)
	}
	seen := make(map[RunConfig]bool, len(configs))
	faultCells := 0
	for _, c := range configs {
		if seen[c] {
			t.Fatalf("duplicate cell %v", c)
		}
		seen[c] = true
		if c.Faults {
			faultCells++
		}
	}
	if faultCells != len(FaultConfigs()) {
		t.Fatalf("%d fault cells, want %d", faultCells, len(FaultConfigs()))
	}
	// Fault cells must cover every selector family.
	algs := make(map[core.Algorithm]bool)
	for _, c := range FaultConfigs() {
		algs[c.Algorithm] = true
	}
	for _, alg := range allAlgorithms {
		if !algs[alg] {
			t.Errorf("no fault cell exercises %v", alg)
		}
	}
}

func TestBuildFaultsDeterministicAndValid(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		spec := DefaultSpec(seed)
		spec.Faults = 1 + int(seed)%6
		topo, trace, err := spec.Build()
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		a := spec.BuildFaults(topo, trace)
		b := spec.BuildFaults(topo, trace)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: fault trace not deterministic", spec)
		}
		if err := a.Validate(topo.NumNodes()); err != nil {
			t.Fatalf("%v: generated fault trace invalid: %v", spec, err)
		}
		if len(a) != 2*spec.Faults {
			t.Fatalf("%v: %d events for %d outages (repairs must pair)", spec, len(a), spec.Faults)
		}
	}
}

func TestBuildFaultsZeroIsNil(t *testing.T) {
	spec := DefaultSpec(1)
	spec.Faults = 0
	topo, trace, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ft := spec.BuildFaults(topo, trace); ft != nil {
		t.Fatalf("fault-free spec built %d fault events", len(ft))
	}
}

// TestDifferentialWithForcedFaults drives the full verification stack —
// per-cell audits, conservation, metamorphic layer including the
// zero-failure identity — over specs with fault injection forced on.
func TestDifferentialWithForcedFaults(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		spec := DefaultSpec(seed)
		spec.Jobs = 18
		spec.Faults = 1 + int(seed)%5
		t.Run(spec.String(), func(t *testing.T) {
			t.Parallel()
			if err := Differential(spec, ConfigsFor(spec), 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReferenceEquivalenceWithFaults proves the optimized and reference
// scheduling paths stay bit-identical while nodes fail, jobs are killed
// and requeued, and capacity churns — the acceptance bar for the fault
// subsystem's integration with the fast paths.
func TestReferenceEquivalenceWithFaults(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		spec := DefaultSpec(seed)
		spec.Jobs = 20
		spec.Faults = 3
		if err := ReferenceEquivalence(spec, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFaultCellsReportRequeues checks the fault matrix actually bites on
// at least one seed: some fault cell must record a requeue or lost
// node-hours somewhere in a small seed sweep, otherwise the cells are
// decoration.
func TestFaultCellsReportRequeues(t *testing.T) {
	sawImpact := false
	for seed := int64(1); seed <= 30 && !sawImpact; seed++ {
		spec := DefaultSpec(seed)
		if spec.Faults == 0 {
			continue
		}
		topo, trace, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		ftrace := spec.BuildFaults(topo, trace)
		for _, c := range FaultConfigs() {
			res, err := sim.RunContinuous(c.simConfigFaults(topo, ftrace), trace)
			if err != nil {
				t.Fatalf("%v %v: %v", spec, c, err)
			}
			if res.Summary.Requeues > 0 || res.Summary.LostNodeHours > 0 {
				sawImpact = true
				break
			}
		}
	}
	if !sawImpact {
		t.Fatal("30 seeds of fault cells never requeued a job or lost node-hours")
	}
}

// TestComputeOnlyAgreementSkipsKills replays the two compute-only seeds on
// which greedy and default requeued different victims under the same
// failures: a hard failure kills whichever job holds the failed node, so
// cells whose runs killed a job cannot be held to one schedule.
func TestComputeOnlyAgreementSkipsKills(t *testing.T) {
	for _, seed := range []int64{200, 921} {
		spec := DefaultSpec(seed)
		if spec.CommFraction != 0 || spec.Faults == 0 {
			t.Fatalf("%v: no longer a compute-only spec with faults", spec)
		}
		if err := Differential(spec, ConfigsFor(spec), 0); err != nil {
			t.Fatal(err)
		}
	}
}
