package experiments

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// Figure6Point is the percentage reduction in total execution time versus
// the default algorithm for one (machine, experiment set, algorithm).
type Figure6Point struct {
	Machine string
	Set     string // A..E
	// ReductionPct maps algorithm -> % execution time reduction vs default.
	ReductionPct map[core.Algorithm]float64
}

// Figure6Result reproduces Figure 6 (Theta) and the §6.2 text numbers for
// Intrepid and Mira: execution-time reduction across the compute/
// communication mixes A–E with 90% communication-intensive jobs.
type Figure6Result struct {
	Points []Figure6Point
}

// Figure6 runs the experiment over the configured machines.
func Figure6(o Options) (*Figure6Result, error) {
	o = o.withDefaults()
	rows, err := runGrid(o, sweep.Grid{Machines: o.Machines, Mixes: collective.ExperimentSets})
	if err != nil {
		return nil, err
	}
	out := &Figure6Result{}
	for _, points := range rows {
		base := points[0].Summary.TotalExecHours
		p := Figure6Point{Machine: points[0].Machine, Set: points[0].Mix,
			ReductionPct: make(map[core.Algorithm]float64, len(algColumns)-1)}
		for _, q := range points[1:] {
			p.ReductionPct[q.Algorithm] = metrics.ImprovementPct(base, q.Summary.TotalExecHours)
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// Format renders the figure's series as a table: one row per machine ×
// experiment set.
func (r *Figure6Result) Format() string {
	header := []string{"Machine", "Set", "Greedy %", "Balanced %", "Adaptive %"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Machine, p.Set,
			fmt.Sprintf("%.2f", p.ReductionPct[core.Greedy]),
			fmt.Sprintf("%.2f", p.ReductionPct[core.Balanced]),
			fmt.Sprintf("%.2f", p.ReductionPct[core.Adaptive]),
		})
	}
	return formatTable("Figure 6: % reduction in execution time across mixes A-E (90% comm jobs)",
		header, rows)
}

// Check verifies the §6.2 claims: gains grow with communication ratio
// within the same pattern family (A < C and D < E for adaptive), and
// balanced/adaptive never lose to the default.
func (r *Figure6Result) Check() []string {
	var issues []string
	byKey := make(map[string]Figure6Point, len(r.Points))
	for _, p := range r.Points {
		byKey[p.Machine+"/"+p.Set] = p
	}
	for _, p := range r.Points {
		for _, alg := range []core.Algorithm{core.Balanced, core.Adaptive} {
			if p.ReductionPct[alg] < -0.5 {
				issues = append(issues, fmt.Sprintf("%s/%s: %v reduction %.2f%% negative",
					p.Machine, p.Set, alg, p.ReductionPct[alg]))
			}
		}
		// C and E are the higher-ratio sets of the A-C and D-E families.
		lower := map[string]string{"C": "A", "E": "D"}[p.Set]
		if q, ok := byKey[p.Machine+"/"+lower]; ok && p.ReductionPct[core.Adaptive] < q.ReductionPct[core.Adaptive] {
			issues = append(issues, fmt.Sprintf("%s: adaptive gain did not grow from %s %.2f%% to %s %.2f%%",
				p.Machine, lower, q.ReductionPct[core.Adaptive], p.Set, p.ReductionPct[core.Adaptive]))
		}
	}
	return issues
}
