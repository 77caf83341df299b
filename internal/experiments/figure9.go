package experiments

import (
	"fmt"
	"math"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Figure9Point is one x-axis position of Figure 9: a percentage of
// communication-intensive jobs with the resulting average turnaround time
// and node-hours per algorithm.
type Figure9Point struct {
	CommPct int // 30, 60, 90
	// AvgTurnaroundHours maps algorithm -> mean turnaround (hours).
	AvgTurnaroundHours map[core.Algorithm]float64
	// AvgNodeHours maps algorithm -> mean node-hours per job.
	AvgNodeHours map[core.Algorithm]float64
}

// Figure9Result reproduces Figure 9: Intrepid, RHVD pattern, varying the
// fraction of communication-intensive jobs.
type Figure9Result struct {
	Machine string
	Points  []Figure9Point
}

// Figure9 runs the experiment on the first configured machine (Intrepid in
// the paper).
func Figure9(o Options) (*Figure9Result, error) {
	o = o.withDefaults()
	preset := pickMachine(o.Machines, "Intrepid")
	rows, err := runGrid(o, sweep.Grid{Machines: []workload.Preset{preset},
		Patterns: []collective.Pattern{collective.RHVD}, CommFractions: []float64{0.3, 0.6, 0.9}})
	if err != nil {
		return nil, err
	}
	out := &Figure9Result{Machine: preset.Name}
	for _, points := range rows {
		p := Figure9Point{CommPct: int(math.Round(points[0].CommFraction * 100)),
			AvgTurnaroundHours: make(map[core.Algorithm]float64, len(algColumns)),
			AvgNodeHours:       make(map[core.Algorithm]float64, len(algColumns)),
		}
		for _, q := range points {
			p.AvgTurnaroundHours[q.Algorithm] = q.Summary.AvgTurnaroundHours
			p.AvgNodeHours[q.Algorithm] = q.Summary.TotalNodeHours / float64(q.Summary.Jobs)
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// Format renders the two sub-plots as tables.
func (r *Figure9Result) Format() string {
	header := []string{"Comm%",
		"TAT(def)", "TAT(greedy)", "TAT(bal)", "TAT(adap)",
		"NH(def)", "NH(greedy)", "NH(bal)", "NH(adap)"}
	var rows [][]string
	for _, p := range r.Points {
		row := []string{fmt.Sprintf("%d", p.CommPct)}
		for _, alg := range algColumns {
			row = append(row, fmt.Sprintf("%.2f", p.AvgTurnaroundHours[alg]))
		}
		for _, alg := range algColumns {
			row = append(row, fmt.Sprintf("%.1f", p.AvgNodeHours[alg]))
		}
		rows = append(rows, row)
	}
	return formatTable(
		fmt.Sprintf("Figure 9 (%s, RHVD): avg turnaround (hours) and node-hours vs %% comm jobs", r.Machine),
		header, rows)
}

// Check verifies the paper's qualitative claims: the proposed algorithms
// beat the default on turnaround at every communication percentage, and
// the adaptive algorithm's gain grows with the communication percentage.
func (r *Figure9Result) Check() []string {
	var issues []string
	var prevGain float64
	for i, p := range r.Points {
		def := p.AvgTurnaroundHours[core.Default]
		for _, alg := range []core.Algorithm{core.Balanced, core.Adaptive} {
			if p.AvgTurnaroundHours[alg] > def*1.001 {
				issues = append(issues, fmt.Sprintf("%d%%: %v turnaround %.2f above default %.2f",
					p.CommPct, alg, p.AvgTurnaroundHours[alg], def))
			}
		}
		gain := 0.0
		if def > 0 {
			gain = (def - p.AvgTurnaroundHours[core.Adaptive]) / def
		}
		if i > 0 && gain+0.02 < prevGain {
			issues = append(issues, fmt.Sprintf("%d%%: adaptive gain %.1f%% fell below %.1f%% at lower comm share",
				p.CommPct, gain*100, prevGain*100))
		}
		prevGain = gain
	}
	return issues
}
