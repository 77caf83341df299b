package experiments

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/sweep"
)

// Table3Cell holds one (machine, pattern, algorithm) outcome in hours.
type Table3Cell struct {
	ExecHours float64
	WaitHours float64
}

// Table3Row is one machine × pattern row of Table 3.
type Table3Row struct {
	Machine string
	Pattern collective.Pattern
	Cells   map[core.Algorithm]Table3Cell
}

// Table3Result reproduces Table 3: total execution and wait times for
// continuous runs with 90% communication-intensive jobs, per machine and
// pattern, under the four algorithms.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 runs the experiment.
func Table3(o Options) (*Table3Result, error) {
	o = o.withDefaults()
	rows, err := runGrid(o, sweep.Grid{Machines: o.Machines, Patterns: patternsRHVDRD})
	if err != nil {
		return nil, err
	}
	out := &Table3Result{}
	for _, points := range rows {
		row := Table3Row{Machine: points[0].Machine, Pattern: points[0].Pattern,
			Cells: make(map[core.Algorithm]Table3Cell, len(algColumns))}
		for _, p := range points {
			row.Cells[p.Algorithm] = Table3Cell{
				ExecHours: p.Summary.TotalExecHours,
				WaitHours: p.Summary.TotalWaitHours,
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format renders the result in the paper's Table 3 layout.
func (r *Table3Result) Format() string {
	header := []string{"Machine", "Pattern",
		"Exec(def)", "Exec(greedy)", "Exec(bal)", "Exec(adap)",
		"Wait(def)", "Wait(greedy)", "Wait(bal)", "Wait(adap)"}
	var rows [][]string
	for _, row := range r.Rows {
		cells := []string{row.Machine, row.Pattern.String()}
		for _, alg := range algColumns {
			cells = append(cells, fmt.Sprintf("%.0f", row.Cells[alg].ExecHours))
		}
		for _, alg := range algColumns {
			cells = append(cells, fmt.Sprintf("%.0f", row.Cells[alg].WaitHours))
		}
		rows = append(rows, cells)
	}
	return formatTable("Table 3: execution and wait times (hours), continuous runs, 90% comm jobs",
		header, rows)
}

// Check verifies the paper's qualitative claims on this result: balanced
// and adaptive beat the default on execution time for every machine and
// pattern. It returns a list of violations (empty = shape reproduced).
func (r *Table3Result) Check() []string {
	var issues []string
	for _, row := range r.Rows {
		def := row.Cells[core.Default]
		for _, alg := range []core.Algorithm{core.Balanced, core.Adaptive} {
			if c := row.Cells[alg]; c.ExecHours > def.ExecHours {
				issues = append(issues, fmt.Sprintf("%s/%v: %v exec %.0fh > default %.0fh",
					row.Machine, row.Pattern, alg, c.ExecHours, def.ExecHours))
			}
		}
	}
	return issues
}
