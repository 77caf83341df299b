// Package metrics aggregates per-job simulation outcomes into the five
// quantities the paper evaluates (§5.4): execution time, wait time,
// turnaround time, node-hours and communication cost — plus the helpers
// the result section needs (percentage improvements, Pearson correlation
// for the Figure 1 study, node-range bucketing for Figure 8).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// JobResult is the outcome of one job in one simulation run. Times are in
// seconds.
type JobResult struct {
	ID        int64
	Nodes     int
	Comm      bool    // communication-intensive?
	Submit    float64 // trace submit time
	Start     float64
	End       float64
	BaseRun   float64 // runtime from the trace
	Exec      float64 // modified runtime actually simulated (Eq. 7)
	CommCost  float64 // Eq. 6 under the run's allocation
	RefCost   float64 // Eq. 6 under the hypothetical default allocation
	CostRatio float64 // Exec scaling ratio applied

	// Fault bookkeeping: node failures kill a running job and resubmit it
	// at the failure time. Requeues counts the kills, RequeuedAt is the
	// last kill time (0 if never killed), and LostSeconds is the discarded
	// partial work (per requeue, kill time minus that attempt's start).
	// Start/End/Exec always describe the final, successful attempt.
	Requeues    int
	RequeuedAt  float64
	LostSeconds float64
}

// Wait returns the queueing delay.
func (r JobResult) Wait() float64 { return r.Start - r.Submit }

// Turnaround returns submission-to-completion time.
func (r JobResult) Turnaround() float64 { return r.End - r.Submit }

// NodeSeconds returns nodes × execution time.
func (r JobResult) NodeSeconds() float64 { return float64(r.Nodes) * r.Exec }

// Summary aggregates a run, in the units the paper reports (hours).
type Summary struct {
	Jobs               int
	TotalExecHours     float64
	TotalWaitHours     float64
	AvgWaitHours       float64
	AvgTurnaroundHours float64
	TotalNodeHours     float64
	AvgCommCost        float64 // over communication-intensive jobs
	MakespanHours      float64

	// Per-class wait averages: §6.1 argues compute-intensive jobs also
	// benefit ("they may still benefit from the reduced execution times of
	// communication-intensive jobs") because nodes free up earlier — the
	// split makes that claim checkable.
	CommJobs            int
	AvgCommWaitHours    float64
	AvgComputeWaitHours float64

	// Fault aggregates: total job kills across the run, and the node-hours
	// of partial work those kills discarded (Σ nodes × lost seconds).
	Requeues      int
	LostNodeHours float64
}

const secondsPerHour = 3600

// Accumulator is a Summary kept as a running sum: every field is a sum taken
// in Add order, a count or a max, so Summary after N calls to Add is
// bit-identical to Summarize over the same N results in the same order, and
// the results need not be kept. The fields are exported so a snapshot can
// store them.
type Accumulator struct {
	Jobs, CommJobs, Requeues int
	// Hour sums over all jobs; CommCost and CommWaitHours over the
	// communication-intensive ones.
	ExecHours, WaitHours, TurnaroundHours, NodeHours float64
	CommCost, CommWaitHours, LostNodeHours           float64
	// MaxEnd is the latest end time in seconds (0 before any job).
	MaxEnd float64
}

// Add folds one result into the sums.
func (a *Accumulator) Add(r JobResult) {
	a.Jobs++
	a.ExecHours += r.Exec / secondsPerHour
	a.WaitHours += r.Wait() / secondsPerHour
	a.TurnaroundHours += r.Turnaround() / secondsPerHour
	a.NodeHours += r.NodeSeconds() / secondsPerHour
	if r.Comm {
		a.CommCost += r.CommCost
		a.CommWaitHours += r.Wait() / secondsPerHour
		a.CommJobs++
	}
	if r.End > a.MaxEnd {
		a.MaxEnd = r.End
	}
	a.Requeues += r.Requeues
	a.LostNodeHours += float64(r.Nodes) * r.LostSeconds / secondsPerHour
}

// Summary derives the averages from the sums.
func (a *Accumulator) Summary() Summary {
	if a.Jobs == 0 {
		return Summary{}
	}
	s := Summary{
		Jobs:               a.Jobs,
		TotalExecHours:     a.ExecHours,
		TotalWaitHours:     a.WaitHours,
		AvgWaitHours:       a.WaitHours / float64(a.Jobs),
		AvgTurnaroundHours: a.TurnaroundHours / float64(a.Jobs),
		TotalNodeHours:     a.NodeHours,
		MakespanHours:      a.MaxEnd / secondsPerHour,
		CommJobs:           a.CommJobs,
		Requeues:           a.Requeues,
		LostNodeHours:      a.LostNodeHours,
	}
	if a.CommJobs > 0 {
		s.AvgCommCost = a.CommCost / float64(a.CommJobs)
		s.AvgCommWaitHours = a.CommWaitHours / float64(a.CommJobs)
	}
	if compute := a.Jobs - a.CommJobs; compute > 0 {
		s.AvgComputeWaitHours = (a.WaitHours - a.CommWaitHours) / float64(compute)
	}
	return s
}

// Summarize aggregates per-job results.
func Summarize(results []JobResult) Summary {
	var a Accumulator
	for _, r := range results {
		a.Add(r)
	}
	return a.Summary()
}

// ImprovementPct returns the percentage improvement of value over base
// (positive = value is lower/better), the convention of Tables 3–4 and
// Figures 6–9.
func ImprovementPct(base, value float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - value) / base * 100
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// series; it reproduces the paper's 0.83 execution-time-vs-contention
// correlation claim for the Figure 1 study. NaN when a series is constant
// or lengths mismatch.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// Bucket is a half-open node-count range [Lo, Hi) with an aggregate value.
type Bucket struct {
	Lo, Hi int
	Jobs   int
	Mean   float64
	Sum    float64
}

// Label renders the bucket's node range as in Figure 8's x axis.
func (b Bucket) Label() string {
	return fmt.Sprintf("%d-%d", b.Lo, b.Hi-1)
}

// BucketByNodes groups the communication cost of comm-intensive jobs by
// requested-node ranges, Figure 8 style. Boundaries must be ascending; jobs
// outside all buckets are ignored.
func BucketByNodes(results []JobResult, boundaries []int) []Bucket {
	if len(boundaries) < 2 {
		return nil
	}
	buckets := make([]Bucket, len(boundaries)-1)
	for i := range buckets {
		buckets[i] = Bucket{Lo: boundaries[i], Hi: boundaries[i+1]}
	}
	for _, r := range results {
		if !r.Comm {
			continue
		}
		i := sort.SearchInts(boundaries, r.Nodes+1) - 1
		if i < 0 || i >= len(buckets) {
			continue
		}
		buckets[i].Jobs++
		buckets[i].Sum += r.CommCost
	}
	for i := range buckets {
		if buckets[i].Jobs > 0 {
			buckets[i].Mean = buckets[i].Sum / float64(buckets[i].Jobs)
		}
	}
	return buckets
}

// Pow2Boundaries returns power-of-two bucket boundaries [1,2,4,...,>=max],
// the natural x axis for logs dominated by power-of-two jobs.
func Pow2Boundaries(max int) []int {
	var b []int
	for v := 1; v < max*2; v *= 2 {
		b = append(b, v)
	}
	return b
}
