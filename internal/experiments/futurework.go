package experiments

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// FutureWorkResult extends the evaluation to the communication patterns the
// paper's §7 names as future work — ring and stencil — plus the pairwise
// Alltoall it attributes to CPMD (§3.3): the same Table 3-style comparison,
// one row per pattern.
type FutureWorkResult struct {
	Machine string
	Rows    []FutureWorkRow
}

// FutureWorkRow is one pattern's outcome.
type FutureWorkRow struct {
	Pattern collective.Pattern
	// ExecHours maps algorithm -> total execution hours.
	ExecHours map[core.Algorithm]float64
	// ImprovementPct maps algorithm -> % exec reduction vs default.
	ImprovementPct map[core.Algorithm]float64
}

// futureWorkPatterns lists the extension patterns in presentation order.
var futureWorkPatterns = []collective.Pattern{
	collective.Ring, collective.Stencil, collective.Alltoall,
}

// FutureWork runs the experiment on the first configured machine.
func FutureWork(o Options) (*FutureWorkResult, error) {
	o = o.withDefaults()
	// Theta keeps the O(P²) ring/alltoall schedules tractable (512-node max
	// requests); the larger machines would scan hundreds of millions of
	// pairs per cost evaluation.
	preset := pickMachine(o.Machines, "Theta")
	rows, err := runGrid(o, sweep.Grid{Machines: []workload.Preset{preset}, Patterns: futureWorkPatterns})
	if err != nil {
		return nil, err
	}
	out := &FutureWorkResult{Machine: preset.Name}
	for _, points := range rows {
		row := FutureWorkRow{Pattern: points[0].Pattern,
			ExecHours:      make(map[core.Algorithm]float64, len(algColumns)),
			ImprovementPct: make(map[core.Algorithm]float64, len(algColumns)-1),
		}
		base := points[0].Summary.TotalExecHours
		for k, p := range points {
			row.ExecHours[p.Algorithm] = p.Summary.TotalExecHours
			if k > 0 {
				row.ImprovementPct[p.Algorithm] = metrics.ImprovementPct(base, p.Summary.TotalExecHours)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format renders the comparison table.
func (r *FutureWorkResult) Format() string {
	header := []string{"Pattern", "Exec(def)", "Exec(greedy)", "Exec(bal)", "Exec(adap)",
		"Greedy %", "Balanced %", "Adaptive %"}
	var rows [][]string
	for _, row := range r.Rows {
		cells := []string{row.Pattern.String()}
		for _, alg := range algColumns {
			cells = append(cells, fmt.Sprintf("%.0f", row.ExecHours[alg]))
		}
		for _, alg := range []core.Algorithm{core.Greedy, core.Balanced, core.Adaptive} {
			cells = append(cells, fmt.Sprintf("%.2f", row.ImprovementPct[alg]))
		}
		rows = append(rows, cells)
	}
	return formatTable(
		fmt.Sprintf("Future-work patterns (%s, 90%% comm): §7 ring/stencil + §3.3 alltoall", r.Machine),
		header, rows)
}

// Check verifies the job-aware algorithms extend to the new patterns:
// balanced and adaptive must not lose to the default.
func (r *FutureWorkResult) Check() []string {
	var issues []string
	for _, row := range r.Rows {
		for _, alg := range []core.Algorithm{core.Balanced, core.Adaptive} {
			if row.ImprovementPct[alg] < -0.5 {
				issues = append(issues, fmt.Sprintf("%v: %v improvement %.2f%% negative",
					row.Pattern, alg, row.ImprovementPct[alg]))
			}
		}
	}
	return issues
}
