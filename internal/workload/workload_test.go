package workload

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/swf"
)

func TestSynthesizeShape(t *testing.T) {
	for _, p := range Presets {
		tr := p.Synthesize(1000, 42)
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		st := tr.ComputeStats()
		if st.Jobs != 1000 {
			t.Fatalf("%s: %d jobs", p.Name, st.Jobs)
		}
		if st.MaxNodes > p.MaxJobNodes {
			t.Errorf("%s: max nodes %d > %d", p.Name, st.MaxNodes, p.MaxJobNodes)
		}
		pow2 := float64(st.Pow2Jobs) / float64(st.Jobs)
		if pow2 < p.Pow2Frac-0.05 {
			t.Errorf("%s: pow2 fraction %.3f, want >= %.2f", p.Name, pow2, p.Pow2Frac-0.05)
		}
		if st.MinNodes < 1 {
			t.Errorf("%s: min nodes %d", p.Name, st.MinNodes)
		}
		// Offered load should be in the vicinity of the target utilisation.
		load := st.TotalNodeSec / (st.SpanSec * float64(tr.MachineNodes))
		if load < p.Utilization*0.5 || load > p.Utilization*2.5 {
			t.Errorf("%s: offered load %.2f far from target %.2f", p.Name, load, p.Utilization)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Theta.Synthesize(100, 7)
	b := Theta.Synthesize(100, 7)
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("lengths differ")
	}
	jobEq := func(x, y Job) bool {
		return x.ID == y.ID && x.Submit == y.Submit && x.Runtime == y.Runtime &&
			x.Nodes == y.Nodes && x.Class == y.Class
	}
	for i := range a.Jobs {
		if !jobEq(a.Jobs[i], b.Jobs[i]) {
			t.Fatalf("job %d differs: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
	c := Theta.Synthesize(100, 8)
	same := true
	for i := range a.Jobs {
		if !jobEq(a.Jobs[i], c.Jobs[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
	if n := len(Theta.Synthesize(0, 1).Jobs); n != 0 {
		t.Fatalf("zero-job trace has %d jobs", n)
	}
}

// TestOnSynthesizesTheSameTrace pins Preset.On: a preset handed its built
// topology synthesizes exactly the trace it builds on its own, field for
// field, for every machine and for the empty trace.
func TestOnSynthesizesTheSameTrace(t *testing.T) {
	for _, p := range Presets {
		on := p.On(p.NewTopology())
		for _, n := range []int{0, 300} {
			if got, want := on.Synthesize(n, 5), p.Synthesize(n, 5); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d jobs: On(topo).Synthesize differs from Synthesize", p.Name, n)
			}
		}
	}
}

func TestTagFractions(t *testing.T) {
	tr := Theta.Synthesize(500, 1)
	for _, frac := range []float64{0, 0.3, 0.6, 0.9, 1} {
		tagged, err := tr.Tag(frac, collective.SinglePattern(collective.RHVD, 0.7), 99)
		if err != nil {
			t.Fatal(err)
		}
		st := tagged.ComputeStats()
		want := int(math.Round(frac * 500))
		if st.CommJobs != want {
			t.Errorf("frac %v: %d comm jobs, want %d", frac, st.CommJobs, want)
		}
		if err := tagged.Validate(); err != nil {
			t.Errorf("frac %v: %v", frac, err)
		}
	}
	// Deterministic tagging.
	a := tr.MustTag(0.5, collective.SetB, 3)
	b := tr.MustTag(0.5, collective.SetB, 3)
	for i := range a.Jobs {
		if a.Jobs[i].Class != b.Jobs[i].Class {
			t.Fatal("tagging not deterministic")
		}
	}
	// Original trace untouched.
	for _, j := range tr.Jobs {
		if j.Class == cluster.CommIntensive {
			t.Fatal("Tag mutated the input trace")
		}
	}
	if _, err := tr.Tag(1.5, collective.SetA, 1); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := tr.Tag(0.5, collective.Mix{Name: "bad"}, 1); err == nil {
		t.Error("invalid mix accepted")
	}
}

func TestSample(t *testing.T) {
	tr := Theta.Synthesize(300, 5)
	idx := tr.Sample(200, 11)
	if len(idx) != 200 {
		t.Fatalf("sampled %d, want 200", len(idx))
	}
	seen := map[int]bool{}
	prev := -1
	for _, i := range idx {
		if i < 0 || i >= 300 || seen[i] {
			t.Fatalf("bad sample index %d", i)
		}
		if i <= prev {
			t.Fatalf("sample not sorted: %d after %d", i, prev)
		}
		seen[i] = true
		prev = i
	}
	if got := tr.Sample(1000, 1); len(got) != 300 {
		t.Fatalf("oversample returned %d, want 300", len(got))
	}
	a := tr.Sample(50, 2)
	b := tr.Sample(50, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestSWFRoundTrip(t *testing.T) {
	tr := Theta.Synthesize(50, 9)
	log := tr.ToSWF()
	var buf bytes.Buffer
	if err := log.Write(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := swf.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := FromSWF(parsed, "Theta", tr.MachineNodes, 0)
	if len(back.Jobs) != len(tr.Jobs) {
		t.Fatalf("round trip: %d jobs, want %d", len(back.Jobs), len(tr.Jobs))
	}
	for i := range back.Jobs {
		if back.Jobs[i].Nodes != tr.Jobs[i].Nodes {
			t.Fatalf("job %d nodes %d != %d", i, back.Jobs[i].Nodes, tr.Jobs[i].Nodes)
		}
		if math.Abs(back.Jobs[i].Runtime-tr.Jobs[i].Runtime) > 1 {
			t.Fatalf("job %d runtime %v != %v", i, back.Jobs[i].Runtime, tr.Jobs[i].Runtime)
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromSWFFilters(t *testing.T) {
	log := &swf.Log{Jobs: []swf.Job{
		{ID: 1, Submit: 100, Runtime: 60, ReqProcs: 4},
		{ID: 2, Submit: 150, Runtime: -1, ReqProcs: 4},    // unknown runtime
		{ID: 3, Submit: 200, Runtime: 60, ReqProcs: 9999}, // too big
		{ID: 4, Submit: 250, Runtime: 60, ReqProcs: -1, UsedProcs: 2},
		{ID: 5, Submit: 300, Runtime: 60, ReqProcs: 8},
	}}
	tr := FromSWF(log, "test", 64, 2)
	if len(tr.Jobs) != 2 {
		t.Fatalf("%d jobs, want 2 (maxJobs cap)", len(tr.Jobs))
	}
	if tr.Jobs[0].Submit != 0 {
		t.Errorf("submit not rebased: %v", tr.Jobs[0].Submit)
	}
	if tr.Jobs[1].Nodes != 2 {
		t.Errorf("UsedProcs fallback failed: %d", tr.Jobs[1].Nodes)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := Theta.Synthesize(10, 3)
	bad := tr
	bad.Jobs = append([]Job(nil), tr.Jobs...)
	bad.Jobs[5].Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero-node job accepted")
	}
	bad.Jobs[5] = tr.Jobs[5]
	bad.Jobs[3].Runtime = -4
	if err := bad.Validate(); err == nil {
		t.Error("negative runtime accepted")
	}
	bad.Jobs[3] = tr.Jobs[3]
	bad.Jobs[2].Submit = bad.Jobs[1].Submit - 100
	if err := bad.Validate(); err == nil {
		t.Error("unordered submit accepted")
	}
}

func TestPresetByName(t *testing.T) {
	p, err := PresetByName("Mira")
	if err != nil || p.Name != "Mira" {
		t.Fatalf("PresetByName(Mira) = %v, %v", p.Name, err)
	}
	if _, err := PresetByName("Frontier"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func BenchmarkSynthesize1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Theta.Synthesize(1000, int64(i))
	}
}

func TestDiurnalArrivals(t *testing.T) {
	flat := Theta
	diurnal := Theta
	diurnal.Diurnal = true
	a := flat.Synthesize(2000, 7)
	b := diurnal.Synthesize(2000, 7)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same sizes/runtimes (arrival modulation only).
	for i := range a.Jobs {
		if a.Jobs[i].Nodes != b.Jobs[i].Nodes || a.Jobs[i].Runtime != b.Jobs[i].Runtime {
			t.Fatal("diurnal option changed job shapes")
		}
	}
	// The diurnal trace must show more inter-hour arrival variance: compare
	// the coefficient of variation of per-4h-bucket counts.
	cv := func(tr Trace) float64 {
		counts := map[int]float64{}
		for _, j := range tr.Jobs {
			counts[int(j.Submit)/(4*3600)]++
		}
		var xs []float64
		for _, c := range counts {
			xs = append(xs, c)
		}
		mean, std := 0.0, 0.0
		for _, v := range xs {
			mean += v
		}
		mean /= float64(len(xs))
		for _, v := range xs {
			std += (v - mean) * (v - mean)
		}
		return math.Sqrt(std/float64(len(xs))) / mean
	}
	if cv(b) <= cv(a) {
		t.Fatalf("diurnal CV %v <= flat CV %v", cv(b), cv(a))
	}
}

// TestValidateEdgeCases mutates a small valid trace one field at a time and
// checks each rejection path of Trace.Validate, plus the accepted
// borderline cases (ID 0 in DependsOn means "no dependency", never a
// reference to job 0). A repeated job ID is refused whether or not any job
// depends on it.
func TestValidateEdgeCases(t *testing.T) {
	base := func() Trace {
		return Trace{
			Name:         "edge",
			MachineNodes: 16,
			Jobs: []Job{
				{ID: 1, Submit: 0, Runtime: 100, Nodes: 4},
				{ID: 2, Submit: 10, Runtime: 50, Nodes: 16},
				{ID: 3, Submit: 20, Runtime: 30, Nodes: 1, DependsOn: 1, ThinkTime: 5},
			},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base trace invalid: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Trace)
		wantErr bool
	}{
		{"self-dependency", func(tr *Trace) { tr.Jobs[2].DependsOn = 3 }, true},
		{"unknown dependency", func(tr *Trace) { tr.Jobs[2].DependsOn = 99 }, true},
		{"later dependency", func(tr *Trace) { tr.Jobs[0].DependsOn = 2 }, true},
		{"zero runtime", func(tr *Trace) { tr.Jobs[1].Runtime = 0 }, true},
		{"negative runtime", func(tr *Trace) { tr.Jobs[1].Runtime = -1 }, true},
		{"negative estimate", func(tr *Trace) { tr.Jobs[0].Estimate = -10 }, true},
		{"negative think time", func(tr *Trace) { tr.Jobs[2].ThinkTime = -1 }, true},
		{"zero nodes", func(tr *Trace) { tr.Jobs[0].Nodes = 0 }, true},
		{"oversized request", func(tr *Trace) { tr.Jobs[1].Nodes = 17 }, true},
		{"unsorted submits", func(tr *Trace) { tr.Jobs[2].Submit = 5 }, true},
		{"duplicate ID with dependencies", func(tr *Trace) { tr.Jobs[1].ID = 1 }, true},
		{"invalid comm mix", func(tr *Trace) {
			tr.Jobs[0].Class = cluster.CommIntensive
			tr.Jobs[0].Mix = collective.Mix{ComputeFrac: 0.2} // fractions sum to 0.2
		}, true},
		{"duplicate ID without dependencies", func(tr *Trace) {
			tr.Jobs[2].DependsOn = 0
			tr.Jobs[1].ID = 1
		}, true},
		{"exact machine-size request", func(tr *Trace) { tr.Jobs[0].Nodes = 16 }, false},
		{"equal submits", func(tr *Trace) { tr.Jobs[1].Submit = 0 }, false},
		{"zero estimate means exact", func(tr *Trace) { tr.Jobs[0].Estimate = 0 }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := base()
			c.mutate(&tr)
			err := tr.Validate()
			if c.wantErr && err == nil {
				t.Errorf("accepted: %s", c.name)
			}
			if !c.wantErr && err != nil {
				t.Errorf("rejected: %v", err)
			}
		})
	}
}

// EstimatedRuntime falls back to the exact runtime only when no estimate
// is present.
func TestEstimatedRuntime(t *testing.T) {
	if got := (Job{Runtime: 50}).EstimatedRuntime(); got != 50 {
		t.Errorf("exact estimate: got %v, want 50", got)
	}
	if got := (Job{Runtime: 50, Estimate: 80}).EstimatedRuntime(); got != 80 {
		t.Errorf("user estimate: got %v, want 80", got)
	}
}
