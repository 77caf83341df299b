package verify

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Soak knobs: the defaults keep the suite fast in CI; overnight runs pass
// e.g. `go test ./internal/verify -run TestDifferential -verify.traces=5000
// -timeout 0`. A printed failure reproduces with -verify.seed=<seed>
// -verify.traces=1.
var (
	flagSeed   = flag.Int64("verify.seed", 1, "first trace seed for the differential suite")
	flagTraces = flag.Int("verify.traces", 60, "number of random traces to verify")
	flagJobs   = flag.Int("verify.jobs", 0, "override jobs per trace (0 = derive from seed)")
)

func specForSeed(seed int64) TraceSpec {
	spec := DefaultSpec(seed)
	if *flagJobs > 0 {
		spec.Jobs = *flagJobs
	}
	return spec
}

// TestDifferential is the harness's main property suite: every seeded
// random trace runs through the full algorithm × cost mode × backfill ×
// policy matrix with per-run invariants, conservation checks and
// cross-configuration metamorphic properties.
func TestDifferential(t *testing.T) {
	for i := 0; i < *flagTraces; i++ {
		seed := *flagSeed + int64(i)
		t.Run(specForSeed(seed).String(), func(t *testing.T) {
			t.Parallel()
			spec := specForSeed(seed)
			if err := Differential(spec, ConfigsFor(spec), 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGeneratorDeterministicAndValid(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		spec := DefaultSpec(seed)
		topo1, trace1, err := spec.Build()
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		_, trace2, err := spec.Build()
		if err != nil {
			t.Fatalf("%v rebuild: %v", spec, err)
		}
		if len(trace1.Jobs) != len(trace2.Jobs) {
			t.Fatalf("%v: rebuild changed job count", spec)
		}
		for i := range trace1.Jobs {
			a, b := trace1.Jobs[i], trace2.Jobs[i]
			if a.ID != b.ID || a.Submit != b.Submit || a.Runtime != b.Runtime ||
				a.Nodes != b.Nodes || a.Class != b.Class || a.DependsOn != b.DependsOn {
				t.Fatalf("%v: job %d differs across rebuilds", spec, i)
			}
		}
		if topo1.NumNodes() != trace1.MachineNodes {
			t.Fatalf("%v: topology %d nodes, trace machine %d", spec, topo1.NumNodes(), trace1.MachineNodes)
		}
		if err := trace1.Validate(); err != nil {
			t.Fatalf("%v: invalid trace: %v", spec, err)
		}
	}
}

// The generator must exercise the axes the harness claims to cover.
func TestGeneratorCoverage(t *testing.T) {
	sawComputeOnly, sawComm, sawDeps, sawBadEst, sawThreeLevel := false, false, false, false, false
	for seed := int64(1); seed <= 40; seed++ {
		spec := DefaultSpec(seed)
		topo, trace, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if topo.Height() > 2 {
			sawThreeLevel = true
		}
		comm := false
		for _, j := range trace.Jobs {
			if j.Class == cluster.CommIntensive {
				comm = true
			}
			if j.DependsOn != 0 {
				sawDeps = true
			}
			if j.Estimate > 0 && j.Estimate != j.Runtime {
				sawBadEst = true
			}
		}
		if comm {
			sawComm = true
		} else {
			sawComputeOnly = true
		}
	}
	for name, saw := range map[string]bool{
		"compute-only trace": sawComputeOnly,
		"comm trace":         sawComm,
		"dependencies":       sawDeps,
		"bad estimates":      sawBadEst,
		"three-level tree":   sawThreeLevel,
	} {
		if !saw {
			t.Errorf("40 seeds never produced a %s", name)
		}
	}
}

func TestAllConfigsCoverMatrix(t *testing.T) {
	configs := AllConfigs()
	want := len(allAlgorithms)*len(allModes)*2*len(allPolicies) + 2 + len(annealConfigs())
	if len(configs) != want {
		t.Fatalf("matrix has %d cells, want %d", len(configs), want)
	}
	seen := make(map[RunConfig]bool, len(configs))
	for _, c := range configs {
		if seen[c] {
			t.Fatalf("duplicate cell %v", c)
		}
		seen[c] = true
	}
}

// An injected engine bug — here simulated by corrupting a result the way a
// missing release in evComplete would (two full-machine jobs overlapping)
// — must surface as a Failure carrying a usable reproducer line.
func TestFailureReproducer(t *testing.T) {
	spec := DefaultSpec(7)
	f := &Failure{Spec: spec, Config: &RunConfig{Algorithm: core.Adaptive}, Err: sim.ValidateResult(&sim.Result{}, workload.Trace{Jobs: []workload.Job{{ID: 1}}})}
	msg := f.Error()
	for _, want := range []string{"seed=7", "alg=adaptive", "-verify.seed=7", "-verify.traces=1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("failure message missing %q:\n%s", want, msg)
		}
	}
}

// RunMatrix powers the CLI: it must produce one summary per cell.
func TestRunMatrix(t *testing.T) {
	spec := DefaultSpec(3)
	spec.Jobs = 12
	sums, err := RunMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != len(ConfigsFor(spec)) {
		t.Fatalf("%d summaries for %d cells", len(sums), len(ConfigsFor(spec)))
	}
	for i, s := range sums {
		if s.Jobs != spec.Jobs {
			t.Fatalf("cell %d summarised %d jobs, want %d", i, s.Jobs, spec.Jobs)
		}
	}
}
