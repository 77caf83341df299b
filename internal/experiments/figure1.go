package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// Figure1Options scales the motivating contention experiment. The zero
// value runs a time-compressed version of the paper's setup (the paper ran
// 10 hours with J2 every 30 minutes; the fluid simulator reproduces the
// same shape in seconds of simulated time).
type Figure1Options struct {
	// MessageBytes is the collective's base message size (default 1 MB, as
	// in the paper).
	MessageBytes float64
	// Duration is the simulated wall-clock length of J1's run in seconds
	// (default 60).
	Duration float64
	// J2Period is the gap between J2 launches (default Duration/4).
	J2Period float64
	// J2Iterations is the number of allgather iterations per J2 burst
	// (default 40).
	J2Iterations int
	// IncastPenalty forwards netsim's TCP congestion-collapse model (0 =
	// pure max-min fluid sharing; ~0.3 approximates the paper's
	// TCP-over-Ethernet cluster, where spikes reach multiples of the
	// baseline).
	IncastPenalty float64
}

func (o Figure1Options) withDefaults() Figure1Options {
	if o.MessageBytes <= 0 {
		o.MessageBytes = 1e6
	}
	if o.Duration <= 0 {
		o.Duration = 60
	}
	if o.J2Period <= 0 {
		o.J2Period = o.Duration / 4
	}
	if o.J2Iterations <= 0 {
		o.J2Iterations = 40
	}
	return o
}

// Figure1Result is the reproduced Figure 1.
type Figure1Result struct {
	// IterEnds / IterTimes is J1's execution-time series (x: wall clock,
	// y: iteration duration), the blue curve of Figure 1.
	IterEnds  []float64
	IterTimes []float64
	// J2Windows are J2's activity intervals (the orange curve's bursts).
	J2Windows [][2]float64
	// BaselineMean and DuringMean are J1's mean iteration time outside and
	// inside J2 windows.
	BaselineMean float64
	DuringMean   float64
	// Correlation is Pearson's r between J1's iteration times and the
	// Eq. 2/3 contention values — the paper reports 0.83 on hardware.
	Correlation float64
	// TrunkBusyFrac is the fraction of the run the s0 inter-switch uplink
	// carried traffic — the contended resource behind the spikes.
	TrunkBusyFrac float64
	// CostAlone and CostShared are the Eq. 6 costs of J1's allocation
	// without and with J2 present.
	CostAlone  float64
	CostShared float64
}

// Figure1 runs the contention experiment on the 50-node departmental
// topology: J1 (8 nodes, 4 per switch) runs MPI_Allgather (RHVD)
// continuously; J2 (12 nodes, 6 per switch) launches periodically and
// shares both switches.
func Figure1(o Figure1Options) (*Figure1Result, error) {
	o = o.withDefaults()
	topo := topology.Departmental()
	// 1 Gb Ethernet with an oversubscribed inter-switch trunk.
	net := netsim.New(topo, netsim.Options{
		NodeBandwidth: 125e6, UplinkBandwidth: 125e6,
		IncastPenalty: o.IncastPenalty,
	})

	j1Nodes := []int{0, 1, 2, 3, 25, 26, 27, 28}
	j2Nodes := []int{4, 5, 6, 7, 8, 9, 29, 30, 31, 32, 33, 34}

	// Calibrate J1's uncontended iteration time with a short solo run.
	solo, err := net.Run([]netsim.CollectiveJob{{
		Name: "J1", Nodes: j1Nodes, Pattern: collective.RHVD,
		BaseBytes: o.MessageBytes, Iterations: 5,
	}})
	if err != nil {
		return nil, err
	}
	baseIter := solo[0].End / 5
	if baseIter <= 0 {
		return nil, fmt.Errorf("figure1: degenerate baseline iteration time")
	}
	j1Iters := int(o.Duration/baseIter) + 5

	jobs := []netsim.CollectiveJob{{
		Name: "J1", Nodes: j1Nodes, Pattern: collective.RHVD,
		BaseBytes: o.MessageBytes, Iterations: j1Iters,
	}}
	for t := o.J2Period; t < o.Duration; t += o.J2Period {
		jobs = append(jobs, netsim.CollectiveJob{
			Name: fmt.Sprintf("J2@%.0f", t), Nodes: j2Nodes, Pattern: collective.RHVD,
			BaseBytes: o.MessageBytes, Iterations: o.J2Iterations, Start: t,
		})
	}
	timings, stats, err := net.RunWithStats(jobs)
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{
		IterEnds:  timings[0].IterEnds,
		IterTimes: timings[0].IterTimes,
	}
	if busy, err := stats.SwitchUplinkBusy("s0"); err == nil {
		res.TrunkBusyFrac = busy
	}
	for _, t := range timings[1:] {
		res.J2Windows = append(res.J2Windows, [2]float64{t.Start, t.End})
	}

	// Eq. 2/3 contention of J1's allocation with and without J2 present.
	st := cluster.New(topo)
	if err := st.Allocate(1, cluster.CommIntensive, j1Nodes); err != nil {
		return nil, err
	}
	res.CostAlone, err = costmodel.JobCost(st, j1Nodes, collective.RHVD, costmodel.ModeEffectiveHops)
	if err != nil {
		return nil, err
	}
	if err := st.Allocate(2, cluster.CommIntensive, j2Nodes); err != nil {
		return nil, err
	}
	res.CostShared, err = costmodel.JobCost(st, j1Nodes, collective.RHVD, costmodel.ModeEffectiveHops)
	if err != nil {
		return nil, err
	}

	// Per-iteration contention value (overlap-interpolated between the two
	// Eq. 6 costs) and per-iteration baseline/during means.
	frac := make([]float64, len(res.IterTimes))
	var baseSum, baseN, durSum, durN float64
	for k, dur := range res.IterTimes {
		end := res.IterEnds[k]
		start := end - dur
		overlap := 0.0
		for _, w := range res.J2Windows {
			lo := math.Max(start, w[0])
			hi := math.Min(end, w[1])
			if hi > lo {
				overlap += hi - lo
			}
		}
		if dur > 0 {
			frac[k] = math.Min(1, overlap/dur)
		}
		if frac[k] > 0.5 {
			durSum += dur
			durN++
		} else if frac[k] == 0 {
			baseSum += dur
			baseN++
		}
	}
	if baseN > 0 {
		res.BaselineMean = baseSum / baseN
	}
	if durN > 0 {
		res.DuringMean = durSum / durN
	}

	// The paper correlates per-execution samples (each a multi-minute job
	// run), not individual collective iterations; correlate segment means:
	// one sample per J2 window and per inter-window gap.
	var segTimes, segContention []float64
	segment := func(lo, hi float64, inWindow bool) {
		var sum, n float64
		for k, dur := range res.IterEnds {
			_ = dur
			end := res.IterEnds[k]
			if end > lo && end <= hi {
				sum += res.IterTimes[k]
				n++
			}
		}
		if n == 0 {
			return
		}
		segTimes = append(segTimes, sum/n)
		c := res.CostAlone
		if inWindow {
			c = res.CostShared
		}
		segContention = append(segContention, c)
	}
	prev := 0.0
	for _, w := range res.J2Windows {
		segment(prev, w[0], false)
		segment(w[0], w[1], true)
		prev = w[1]
	}
	if len(res.IterEnds) > 0 {
		segment(prev, res.IterEnds[len(res.IterEnds)-1]+1, false)
	}
	res.Correlation = metrics.Pearson(segTimes, segContention)
	return res, nil
}

// Format renders the series compactly: burst windows, means and the
// correlation headline.
func (r *Figure1Result) Format() string {
	s := "Figure 1: two communication-intensive jobs sharing switches\n"
	s += fmt.Sprintf("J1 iterations: %d, baseline mean %.4fs, during-J2 mean %.4fs (x%.2f)\n",
		len(r.IterTimes), r.BaselineMean, r.DuringMean, r.DuringMean/math.Max(r.BaselineMean, 1e-12))
	s += fmt.Sprintf("J2 bursts: %d\n", len(r.J2Windows))
	s += fmt.Sprintf("Eq.6 cost of J1: alone %.2f, sharing with J2 %.2f\n", r.CostAlone, r.CostShared)
	s += fmt.Sprintf("correlation(exec time, Eq.2/3 contention) = %.2f (paper: 0.83)\n", r.Correlation)
	s += fmt.Sprintf("inter-switch trunk busy %.0f%% of the run\n", r.TrunkBusyFrac*100)
	return s
}

// Check verifies the motivating observations: J1 slows while J2 runs and
// the contention metric correlates strongly with execution time.
func (r *Figure1Result) Check() []string {
	var issues []string
	if r.DuringMean <= r.BaselineMean {
		issues = append(issues, fmt.Sprintf("no slowdown during J2: %.4f vs %.4f",
			r.DuringMean, r.BaselineMean))
	}
	if !(r.Correlation > 0.5) {
		issues = append(issues, fmt.Sprintf("weak contention correlation %.2f", r.Correlation))
	}
	if r.CostShared <= r.CostAlone {
		issues = append(issues, "Eq.6 cost did not increase with a co-located job")
	}
	return issues
}
