// Package export renders simulation and experiment results as CSV and JSON
// for downstream plotting — the artefacts a reproduction pipeline feeds to
// gnuplot/matplotlib to redraw the paper's figures.
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// JobsCSV writes one row per job of a run: the per-job quantities behind
// Figures 7 and 8.
func JobsCSV(w io.Writer, res *sim.Result) error {
	cw := csv.NewWriter(w)
	header := []string{"job_id", "nodes", "class", "submit_s", "start_s", "end_s",
		"wait_s", "base_runtime_s", "exec_s", "cost_ratio", "comm_cost", "ref_cost"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, jr := range res.Jobs {
		class := "compute"
		if jr.Comm {
			class = "comm"
		}
		row := []string{
			strconv.FormatInt(jr.ID, 10),
			strconv.Itoa(jr.Nodes),
			class,
			f(jr.Submit), f(jr.Start), f(jr.End),
			f(jr.Wait()), f(jr.BaseRun), f(jr.Exec),
			f(jr.CostRatio), f(jr.CommCost), f(jr.RefCost),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ComparisonJSON writes several runs keyed by algorithm, with percentage
// improvements over the first (baseline) run.
func ComparisonJSON(w io.Writer, results []*sim.Result) error {
	if len(results) == 0 {
		return fmt.Errorf("export: no results")
	}
	type entry struct {
		Algorithm     string          `json:"algorithm"`
		Summary       metrics.Summary `json:"summary"`
		ExecImprovPct float64         `json:"exec_improvement_pct"`
		WaitImprovPct float64         `json:"wait_improvement_pct"`
		TATImprovPct  float64         `json:"turnaround_improvement_pct"`
	}
	base := results[0].Summary
	var out []entry
	for _, res := range results {
		out = append(out, entry{
			Algorithm:     res.Algorithm.String(),
			Summary:       res.Summary,
			ExecImprovPct: metrics.ImprovementPct(base.TotalExecHours, res.Summary.TotalExecHours),
			WaitImprovPct: metrics.ImprovementPct(base.TotalWaitHours, res.Summary.TotalWaitHours),
			TATImprovPct:  metrics.ImprovementPct(base.AvgTurnaroundHours, res.Summary.AvgTurnaroundHours),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
