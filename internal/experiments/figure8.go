package experiments

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Figure8Series is one machine's communication-cost-by-node-range series
// under one algorithm.
type Figure8Series struct {
	Machine string
	Pattern collective.Pattern
	// Buckets maps algorithm -> mean Eq. 6 cost per requested-node range.
	Buckets map[core.Algorithm][]metrics.Bucket
	// AvgReductionPct maps algorithm -> average % cost reduction vs default
	// over all comm jobs (the §6.4 text numbers).
	AvgReductionPct map[core.Algorithm]float64
}

// Figure8Result reproduces Figure 8 (binomial pattern) and, when invoked
// per pattern, the §6.4 cost-reduction numbers for RD and RHVD.
type Figure8Result struct {
	Series []Figure8Series
}

// Figure8 runs the experiment with the given pattern (the figure uses
// Binomial; §6.4's text also reports RD and RHVD).
func Figure8(o Options, pattern collective.Pattern) (*Figure8Result, error) {
	o = o.withDefaults()
	topos := make([]*topology.Topology, len(o.Machines))
	traces := make([]workload.Trace, len(o.Machines))
	for m, preset := range o.Machines {
		topos[m] = preset.NewTopology()
		var err error
		if traces[m], err = paperTrace(o, preset, topos[m], pattern); err != nil {
			return nil, fmt.Errorf("figure8 %s: %w", preset.Name, err)
		}
	}
	// One cell per machine × algorithm: its cost buckets and the mean
	// cost over its multi-node comm jobs.
	buckets := make([][]metrics.Bucket, len(o.Machines)*len(algColumns))
	avgCost := make([]float64, len(buckets))
	err := sweep.Each(len(buckets), o.Parallelism, func(k int) error {
		m, alg := k/len(algColumns), algColumns[k%len(algColumns)]
		res, err := sim.RunContinuousValidated(sim.Config{Topology: topos[m], Algorithm: alg, CostMode: o.CostMode}, traces[m])
		if err != nil {
			return fmt.Errorf("figure8 %s/%v: %w", o.Machines[m].Name, alg, err)
		}
		buckets[k] = metrics.BucketByNodes(res.Jobs, metrics.Pow2Boundaries(o.Machines[m].MaxJobNodes))
		n := 0
		for _, jr := range res.Jobs {
			if jr.Comm && jr.Nodes > 1 {
				avgCost[k] += jr.CommCost
				n++
			}
		}
		if n > 0 {
			avgCost[k] /= float64(n)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Figure8Result{}
	for m, preset := range o.Machines {
		s := Figure8Series{Machine: preset.Name, Pattern: pattern,
			Buckets:         make(map[core.Algorithm][]metrics.Bucket, len(algColumns)),
			AvgReductionPct: make(map[core.Algorithm]float64, len(algColumns)-1),
		}
		first := m * len(algColumns) // algColumns[0] is the default
		for i, alg := range algColumns {
			s.Buckets[alg] = buckets[first+i]
			if i > 0 {
				s.AvgReductionPct[alg] = metrics.ImprovementPct(avgCost[first], avgCost[first+i])
			}
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}

// Format renders one table per machine: mean communication cost per node
// range under each algorithm, plus the average reductions.
func (r *Figure8Result) Format() string {
	var out string
	for _, s := range r.Series {
		header := []string{"Nodes", "Default", "Greedy", "Balanced", "Adaptive"}
		var rows [][]string
		defBuckets := s.Buckets[core.Default]
		for bi, b := range defBuckets {
			if b.Jobs == 0 {
				continue
			}
			row := []string{b.Label()}
			for _, alg := range algColumns {
				row = append(row, fmt.Sprintf("%.1f", s.Buckets[alg][bi].Mean))
			}
			rows = append(rows, row)
		}
		out += formatTable(
			fmt.Sprintf("Figure 8 (%s, %v): mean communication cost (Eq. 6) by requested nodes",
				s.Machine, s.Pattern),
			header, rows)
		out += fmt.Sprintf("avg cost reduction vs default: greedy %.2f%%, balanced %.2f%%, adaptive %.2f%%\n\n",
			s.AvgReductionPct[core.Greedy], s.AvgReductionPct[core.Balanced], s.AvgReductionPct[core.Adaptive])
	}
	return out
}

// Check verifies the §6.4 claim that the proposed algorithms have lower
// average communication cost than the default.
func (r *Figure8Result) Check() []string {
	var issues []string
	for _, s := range r.Series {
		for _, alg := range []core.Algorithm{core.Balanced, core.Adaptive} {
			if s.AvgReductionPct[alg] < 0 {
				issues = append(issues, fmt.Sprintf("%s: %v average cost reduction %.2f%% negative",
					s.Machine, alg, s.AvgReductionPct[alg]))
			}
		}
	}
	return issues
}
