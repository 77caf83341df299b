package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestJobResultDerived(t *testing.T) {
	r := JobResult{Nodes: 4, Submit: 100, Start: 160, End: 460, Exec: 300}
	if r.Wait() != 60 {
		t.Errorf("Wait = %v, want 60", r.Wait())
	}
	if r.Turnaround() != 360 {
		t.Errorf("Turnaround = %v, want 360", r.Turnaround())
	}
	if r.NodeSeconds() != 1200 {
		t.Errorf("NodeSeconds = %v, want 1200", r.NodeSeconds())
	}
}

func TestSummarize(t *testing.T) {
	results := []JobResult{
		{ID: 1, Nodes: 2, Comm: true, Submit: 0, Start: 0, End: 3600, Exec: 3600, CommCost: 10},
		{ID: 2, Nodes: 4, Comm: false, Submit: 0, Start: 3600, End: 7200, Exec: 3600},
		{ID: 3, Nodes: 1, Comm: true, Submit: 0, Start: 1800, End: 5400, Exec: 3600, CommCost: 30},
	}
	s := Summarize(results)
	if s.Jobs != 3 {
		t.Fatalf("Jobs = %d", s.Jobs)
	}
	if !approx(s.TotalExecHours, 3) {
		t.Errorf("TotalExecHours = %v, want 3", s.TotalExecHours)
	}
	if !approx(s.TotalWaitHours, 1.5) {
		t.Errorf("TotalWaitHours = %v, want 1.5", s.TotalWaitHours)
	}
	if !approx(s.AvgWaitHours, 0.5) {
		t.Errorf("AvgWaitHours = %v, want 0.5", s.AvgWaitHours)
	}
	if !approx(s.AvgTurnaroundHours, (1+2+1.5)/3) {
		t.Errorf("AvgTurnaroundHours = %v", s.AvgTurnaroundHours)
	}
	if !approx(s.TotalNodeHours, 2+4+1) {
		t.Errorf("TotalNodeHours = %v, want 7", s.TotalNodeHours)
	}
	if !approx(s.AvgCommCost, 20) {
		t.Errorf("AvgCommCost = %v, want 20", s.AvgCommCost)
	}
	if !approx(s.MakespanHours, 2) {
		t.Errorf("MakespanHours = %v, want 2", s.MakespanHours)
	}
	empty := Summarize(nil)
	if empty.Jobs != 0 || empty.TotalExecHours != 0 {
		t.Error("empty summary not zero")
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// summarizeRef is Summarize as it was written before the Accumulator: one
// loop over the whole list.
func summarizeRef(results []JobResult) Summary {
	s := Summary{Jobs: len(results)}
	if len(results) == 0 {
		return s
	}
	commJobs := 0
	makespan := 0.0
	turnaround := 0.0
	commWait := 0.0
	for _, r := range results {
		s.TotalExecHours += r.Exec / secondsPerHour
		s.TotalWaitHours += r.Wait() / secondsPerHour
		turnaround += r.Turnaround() / secondsPerHour
		s.TotalNodeHours += r.NodeSeconds() / secondsPerHour
		if r.Comm {
			s.AvgCommCost += r.CommCost
			commWait += r.Wait() / secondsPerHour
			commJobs++
		}
		if r.End > makespan {
			makespan = r.End
		}
		s.Requeues += r.Requeues
		s.LostNodeHours += float64(r.Nodes) * r.LostSeconds / secondsPerHour
	}
	s.AvgWaitHours = s.TotalWaitHours / float64(len(results))
	s.AvgTurnaroundHours = turnaround / float64(len(results))
	s.CommJobs = commJobs
	if commJobs > 0 {
		s.AvgCommCost /= float64(commJobs)
		s.AvgCommWaitHours = commWait / float64(commJobs)
	}
	if compute := len(results) - commJobs; compute > 0 {
		s.AvgComputeWaitHours = (s.TotalWaitHours - commWait) / float64(compute)
	}
	s.MakespanHours = makespan / secondsPerHour
	return s
}

// sameBits compares two summaries field by field, floats by their bits.
func sameBits(a, b Summary) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		x, y := va.Field(i), vb.Field(i)
		if x.Kind() == reflect.Float64 {
			if math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
				return false
			}
		} else if x.Int() != y.Int() {
			return false
		}
	}
	return true
}

// After every Add, the accumulator's Summary is the reference loop's over
// the results so far, bit for bit: empty, all-comm, all-compute, mixed, and
// with requeues.
func TestAccumulatorMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		mix := trial % 4 // 0 all compute, 1 all comm, 2 and 3 mixed
		var results []JobResult
		var acc Accumulator
		if s := acc.Summary(); !sameBits(s, summarizeRef(nil)) {
			t.Fatalf("empty accumulator: %+v", s)
		}
		for n := rng.Intn(60); len(results) < n; {
			submit := rng.Float64() * 1e6
			start := submit + rng.ExpFloat64()*3600
			exec := 1 + rng.Float64()*7200
			r := JobResult{ID: int64(len(results) + 1), Nodes: 1 + rng.Intn(4096), Submit: submit,
				Start: start, End: start + exec, BaseRun: exec, Exec: exec,
				Comm: mix == 1 || (mix >= 2 && rng.Intn(2) == 0)}
			if r.Comm {
				r.CommCost, r.RefCost = rng.Float64()*40, rng.Float64()*40
			}
			if mix == 3 && rng.Intn(3) == 0 {
				r.Requeues, r.RequeuedAt, r.LostSeconds = 1+rng.Intn(3), start, rng.Float64()*900
			}
			results = append(results, r)
			acc.Add(r)
			if got, want := acc.Summary(), summarizeRef(results); !sameBits(got, want) || !sameBits(Summarize(results), want) {
				t.Fatalf("trial %d after %d results: accumulator %+v, reference %+v", trial, len(results), got, want)
			}
		}
	}
}

func TestImprovementPct(t *testing.T) {
	if got := ImprovementPct(100, 90); !approx(got, 10) {
		t.Errorf("got %v, want 10", got)
	}
	if got := ImprovementPct(100, 120); !approx(got, -20) {
		t.Errorf("got %v, want -20", got)
	}
	if got := ImprovementPct(0, 5); got != 0 {
		t.Errorf("zero base: %v, want 0", got)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); !approx(got, 1) {
		t.Errorf("perfect correlation = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, neg); !approx(got, -1) {
		t.Errorf("perfect anticorrelation = %v, want -1", got)
	}
	if got := Pearson(x, []float64{1, 1, 1, 1, 1}); !math.IsNaN(got) {
		t.Errorf("constant series: %v, want NaN", got)
	}
	if got := Pearson(x, []float64{1}); !math.IsNaN(got) {
		t.Errorf("length mismatch: %v, want NaN", got)
	}
}

// Pearson is invariant to affine transformations of either series.
func TestPearsonAffineInvariance(t *testing.T) {
	f := func(raw [6]int8, scaleRaw uint8) bool {
		x := make([]float64, 6)
		y := make([]float64, 6)
		for i := range raw {
			x[i] = float64(raw[i])
			y[i] = float64(raw[i])*2 + float64(i*i) // correlated but not identical
		}
		base := Pearson(x, y)
		if math.IsNaN(base) {
			return true
		}
		scale := float64(scaleRaw%9) + 1
		xs := make([]float64, len(x))
		for i := range x {
			xs[i] = x[i]*scale + 17
		}
		got := Pearson(xs, y)
		return math.Abs(got-base) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketByNodes(t *testing.T) {
	results := []JobResult{
		{Nodes: 1, Comm: true, CommCost: 10},
		{Nodes: 2, Comm: true, CommCost: 20},
		{Nodes: 3, Comm: true, CommCost: 30},
		{Nodes: 4, Comm: true, CommCost: 40},
		{Nodes: 4, Comm: false, CommCost: 999}, // compute: ignored
		{Nodes: 100, Comm: true, CommCost: 50}, // out of range: ignored
	}
	buckets := BucketByNodes(results, []int{1, 2, 4, 8})
	if len(buckets) != 3 {
		t.Fatalf("%d buckets, want 3", len(buckets))
	}
	if buckets[0].Jobs != 1 || !approx(buckets[0].Mean, 10) {
		t.Errorf("bucket 0 = %+v", buckets[0])
	}
	if buckets[1].Jobs != 2 || !approx(buckets[1].Mean, 25) {
		t.Errorf("bucket 1 = %+v", buckets[1])
	}
	if buckets[2].Jobs != 1 || !approx(buckets[2].Mean, 40) {
		t.Errorf("bucket 2 = %+v", buckets[2])
	}
	if buckets[0].Label() != "1-1" || buckets[2].Label() != "4-7" {
		t.Errorf("labels: %q %q", buckets[0].Label(), buckets[2].Label())
	}
	if got := BucketByNodes(results, []int{4}); got != nil {
		t.Error("single boundary should yield nil")
	}
}

func TestPow2Boundaries(t *testing.T) {
	b := Pow2Boundaries(512)
	if b[0] != 1 || b[len(b)-1] < 512 {
		t.Fatalf("boundaries %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] != b[i-1]*2 {
			t.Fatalf("non-doubling boundaries: %v", b)
		}
	}
}

func TestPerClassWaits(t *testing.T) {
	results := []JobResult{
		{ID: 1, Nodes: 1, Comm: true, Submit: 0, Start: 3600, End: 7200, Exec: 3600},
		{ID: 2, Nodes: 1, Comm: true, Submit: 0, Start: 0, End: 3600, Exec: 3600},
		{ID: 3, Nodes: 1, Comm: false, Submit: 0, Start: 7200, End: 10800, Exec: 3600},
	}
	s := Summarize(results)
	if s.CommJobs != 2 {
		t.Fatalf("CommJobs = %d", s.CommJobs)
	}
	if !approx(s.AvgCommWaitHours, 0.5) {
		t.Fatalf("AvgCommWaitHours = %v, want 0.5", s.AvgCommWaitHours)
	}
	if !approx(s.AvgComputeWaitHours, 2) {
		t.Fatalf("AvgComputeWaitHours = %v, want 2", s.AvgComputeWaitHours)
	}
	// All-comm runs leave the compute average at zero.
	s = Summarize(results[:2])
	if s.AvgComputeWaitHours != 0 {
		t.Fatalf("AvgComputeWaitHours = %v for all-comm run", s.AvgComputeWaitHours)
	}
}
