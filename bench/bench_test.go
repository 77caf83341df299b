package main

import (
	"io"
	"math"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// runWorkload starts a set-up probe, a sweep child or the host probe.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-probe-setup" || a == "-sweep-child" || a == "-host-probe" {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

// small is every workload scaled down so the whole suite runs in seconds.
// The names, code paths and metric sets are the full-size ones.
var small = map[string]workloadSpec{
	wReplayTheta:    {Jobs: 200, Traces: 2, Candidates: 1, MinReps: 2},
	wReplayIntrepid: {Jobs: 120, Traces: 1, Candidates: 5, MinReps: 1},
	wSweepPaper:     {Jobs: 60, Traces: 1, Candidates: 3, MinReps: 1},
	wDaemonReplay:   {Jobs: 3200, Traces: 1, Candidates: 1, MinReps: 1},
	wDaemonBacklog:  {Jobs: 3200, Traces: 1, Candidates: 1, MinReps: 1},
	wDaemonPaced:    {Traces: 1, Candidates: 1, MinReps: 1},
}

const smallSeconds = 0.4

func runSmall(t *testing.T, name string, traced bool) result {
	t.Helper()
	spec := small[name]
	spec.Name, spec.SetupProbes = name, 1
	gold := &goldens{got: map[string]string{}}
	// Seed 2: no goldens apply, repetitions are compared with each other.
	res, errs, err := runWorkload(spec, 2, smallSeconds, traced, gold, "", io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, errs)
	}
	return res
}

// checkNames asserts the result carries exactly the named metrics, each
// finite and unit-tagged.
func checkNames(t *testing.T, name string, res result, specs []metricSpec, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(specs))
	}
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, m.Name)
		case !nameRE.MatchString(m.Name):
			t.Errorf("bad metric name %q", m.Name)
		case v.Unit != m.Unit || v.Unit == "":
			t.Errorf("%s: %s unit %q, want %q", name, m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", name, m.Name, v.Value)
		case nonZero && v.Value == 0:
			t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
		}
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if len(m.Unit) > 16 {
			t.Errorf("%s: unit %q too long", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			checkNames(t, w.Name, runSmall(t, w.Name, false), endToEnd, true)
			traced := runSmall(t, w.Name, true)
			checkNames(t, w.Name, traced, perLayer, false)
			if _, replay := replayMachines[w.Name]; replay {
				if p := traced.Metrics["bench.shadow_parity"].Value; p != 1 {
					t.Errorf("%s: bench.shadow_parity = %v, want 1", w.Name, p)
				}
				if traced.Metrics["costmodel.price_calls"].Value == 0 {
					t.Errorf("%s: the shadow replay priced nothing", w.Name)
				}
			}
		})
	}
}

// Two daemon_replay runs of the same seed must agree on every exact count.
func TestDaemonReplayRepeatsExactly(t *testing.T) {
	exact := []string{"daemon.starts", "daemon.completed", "daemon.queue_depth_end",
		"daemon.queue_depth_max", "daemon.running_max"}
	a := runSmall(t, wDaemonReplay, true)
	b := runSmall(t, wDaemonReplay, true)
	for _, n := range exact {
		if a.Metrics[n].Value != b.Metrics[n].Value {
			t.Errorf("%s: %v then %v", n, a.Metrics[n].Value, b.Metrics[n].Value)
		}
	}
	if a.Metrics["daemon.starts"].Value == 0 {
		t.Error("no job started")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "y", Better: "higher", Bound: 0.10}
	cases := []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 99}, []float64{105, 104, 106}, "ok"},
		{lower, []float64{100, 101, 99}, []float64{115, 114, 116}, "worse"},
		{lower, []float64{100, 101, 99}, []float64{80, 81, 79}, "ok"},
		{higher, []float64{100, 101, 99}, []float64{85, 84, 86}, "worse"},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "ok"},
		{lower, []float64{80, 100, 120, 130}, []float64{100, 101, 99, 100}, "unresolved"},
	}
	for i, c := range cases {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}
