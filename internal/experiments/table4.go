package experiments

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// Table4Row is one machine × pattern row: average percentage improvement in
// execution time over the default for individual runs.
type Table4Row struct {
	Machine string
	Pattern collective.Pattern
	// AvgImprovementPct maps algorithm -> mean % execution improvement over
	// default across the sampled jobs.
	AvgImprovementPct map[core.Algorithm]float64
	JobsEvaluated     int
}

// Table4Result reproduces Table 4: individual runs of randomly sampled jobs
// from an identical partially occupied cluster state (§6.3).
type Table4Result struct {
	Rows []Table4Row
}

// Table4 runs the experiment, one cell per machine × pattern row.
func Table4(o Options) (*Table4Result, error) {
	o = o.withDefaults()
	topos := make([]*topology.Topology, len(o.Machines))
	for i, preset := range o.Machines {
		topos[i] = preset.NewTopology()
	}
	out := &Table4Result{Rows: make([]Table4Row, len(o.Machines)*len(patternsRHVDRD))}
	err := sweep.Each(len(out.Rows), o.Parallelism, func(k int) error {
		m, pat := k/len(patternsRHVDRD), patternsRHVDRD[k%len(patternsRHVDRD)]
		preset := o.Machines[m]
		tagged, err := paperTrace(o, preset, topos[m], pat)
		if err != nil {
			return err
		}
		idx := tagged.Sample(o.IndividualJobs, o.Seed+31)
		cfg := sim.IndividualConfig{Topology: topos[m], Seed: o.Seed + 43, CostMode: o.CostMode}
		results, err := sim.RunIndividual(cfg, tagged, idx, algColumns)
		if err != nil {
			return fmt.Errorf("table4 %s/%v: %w", preset.Name, pat, err)
		}
		row := Table4Row{Machine: preset.Name, Pattern: pat,
			AvgImprovementPct: make(map[core.Algorithm]float64, len(algColumns)-1)}
		for _, r := range results {
			base := r.Exec[core.Default]
			if base <= 0 {
				continue
			}
			row.JobsEvaluated++
			for _, alg := range algColumns[1:] {
				row.AvgImprovementPct[alg] += metrics.ImprovementPct(base, r.Exec[alg])
			}
		}
		if row.JobsEvaluated > 0 {
			for _, alg := range algColumns[1:] {
				row.AvgImprovementPct[alg] /= float64(row.JobsEvaluated)
			}
		}
		out.Rows[k] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the paper's Table 4 layout.
func (r *Table4Result) Format() string {
	header := []string{"Machine", "Pattern", "Greedy %", "Balanced %", "Adaptive %", "Jobs"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Machine, row.Pattern.String(),
			fmt.Sprintf("%.2f", row.AvgImprovementPct[core.Greedy]),
			fmt.Sprintf("%.2f", row.AvgImprovementPct[core.Balanced]),
			fmt.Sprintf("%.2f", row.AvgImprovementPct[core.Adaptive]),
			fmt.Sprintf("%d", row.JobsEvaluated),
		})
	}
	return formatTable("Table 4: avg % improvement in execution time, individual runs",
		header, rows)
}

// Check verifies §6.3's claim: balanced and adaptive always provide a
// similar or better allocation than the default, and adaptive at least
// matches greedy. Greedy is allowed to go negative — the paper itself
// observes "little or negative improvement for the greedy algorithm" on
// the large-leaf Mira topology (§6.1).
func (r *Table4Result) Check() []string {
	var issues []string
	for _, row := range r.Rows {
		for _, alg := range []core.Algorithm{core.Balanced, core.Adaptive} {
			if v := row.AvgImprovementPct[alg]; v < -0.01 {
				issues = append(issues, fmt.Sprintf("%s/%v: %v average improvement %.2f%% negative",
					row.Machine, row.Pattern, alg, v))
			}
		}
		if row.AvgImprovementPct[core.Adaptive]+0.01 < row.AvgImprovementPct[core.Greedy] {
			issues = append(issues, fmt.Sprintf("%s/%v: adaptive (%.2f%%) below greedy (%.2f%%)",
				row.Machine, row.Pattern,
				row.AvgImprovementPct[core.Adaptive], row.AvgImprovementPct[core.Greedy]))
		}
	}
	return issues
}
