package experiments

import (
	"fmt"
	"sort"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// AnnealBudgets is the quality-vs-budget sweep the anneal experiment runs:
// budget 0 is the adaptive baseline (the search disabled via the
// negative-budget passthrough, so the row is bit-identical to
// core.Adaptive), the rest trade evaluated candidates for placement
// quality.
var AnnealBudgets = []int{0, 64, 256, 1024}

// AnnealQualityRow is one budget's outcome.
type AnnealQualityRow struct {
	Budget int
	// MedianCommCost / MeanCommCost summarise per-job Eq. 6 cost under the
	// run's allocations, over communication-intensive jobs — the placement
	// quality the annealer optimises. TestAnnealQualityQuick pins the
	// median and the execution hours of every row on the gate workload.
	MedianCommCost float64
	MeanCommCost   float64
	ExecHours      float64
	WaitHours      float64
}

// AnnealQualityResult is the quality-vs-budget table.
type AnnealQualityResult struct {
	Machine string
	Pattern collective.Pattern
	Jobs    int
	Rows    []AnnealQualityRow
}

// AnnealQuality runs one machine's continuous trace under the anneal
// selector at each budget in AnnealBudgets and reports how placement
// quality responds to search effort. All rows share the same trace and
// tagging, so the budget is the only thing that varies between them.
//
// Note the selector-level never-worse invariant (anneal ≤ its adaptive
// seed for each single selection) does not compose across a continuous
// run — an improved placement changes the machine state every later job
// sees — so the per-run medians are compared by Check with that in mind.
func AnnealQuality(o Options) (*AnnealQualityResult, error) {
	o = o.withDefaults()
	preset := pickMachine(o.Machines, "Theta")
	topo := preset.NewTopology()
	tagged, err := paperTrace(o, preset, topo, collective.RD)
	if err != nil {
		return nil, err
	}
	out := &AnnealQualityResult{
		Machine: preset.Name, Pattern: collective.RD, Jobs: o.Jobs,
		Rows: make([]AnnealQualityRow, len(AnnealBudgets)),
	}
	err = sweep.Each(len(AnnealBudgets), o.Parallelism, func(i int) error {
		budget := AnnealBudgets[i]
		cfg := sim.Config{Topology: topo, Algorithm: core.Anneal,
			CostMode: o.CostMode, AnnealBudget: budget}
		if budget == 0 {
			cfg.AnnealBudget = -1 // passthrough: the adaptive baseline
		}
		res, err := sim.RunContinuousValidated(cfg, tagged)
		if err != nil {
			return fmt.Errorf("anneal budget %d: %w", budget, err)
		}
		costs := make([]float64, 0, len(res.Jobs))
		mean := 0.0
		for _, r := range res.Jobs {
			if r.Comm {
				costs = append(costs, r.CommCost)
				mean += r.CommCost
			}
		}
		if len(costs) == 0 {
			return fmt.Errorf("anneal budget %d: no communication-intensive jobs", budget)
		}
		sort.Float64s(costs)
		mid := costs[len(costs)/2]
		if len(costs)%2 == 0 {
			mid = (costs[len(costs)/2-1] + costs[len(costs)/2]) / 2
		}
		out.Rows[i] = AnnealQualityRow{
			Budget:         budget,
			MedianCommCost: mid,
			MeanCommCost:   mean / float64(len(costs)),
			ExecHours:      res.Summary.TotalExecHours,
			WaitHours:      res.Summary.TotalWaitHours,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the quality-vs-budget table.
func (r *AnnealQualityResult) Format() string {
	header := []string{"budget", "median_comm_cost", "mean_comm_cost", "exec_hours", "wait_hours"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Budget),
			fmt.Sprintf("%.4f", row.MedianCommCost),
			fmt.Sprintf("%.4f", row.MeanCommCost),
			fmt.Sprintf("%.1f", row.ExecHours),
			fmt.Sprintf("%.1f", row.WaitHours),
		})
	}
	title := fmt.Sprintf("Anneal quality vs budget: %s, %v, %d jobs (budget 0 = adaptive baseline)",
		r.Machine, r.Pattern, r.Jobs)
	return formatTable(title, header, rows)
}

// Check verifies the experiment's qualitative claim: search effort does
// not hurt aggregate placement quality. Because single-selection
// improvements perturb every later scheduling decision, per-run medians
// are not strictly monotone in the budget; the gate is that no budget
// loses more than 2% to the adaptive baseline, and the largest budget must
// do at least as well as the baseline.
func (r *AnnealQualityResult) Check() []string {
	var issues []string
	if len(r.Rows) == 0 || r.Rows[0].Budget != 0 {
		return []string{"missing budget-0 baseline row"}
	}
	base := r.Rows[0].MedianCommCost
	for _, row := range r.Rows[1:] {
		if row.MedianCommCost > base*1.02 {
			issues = append(issues, fmt.Sprintf(
				"budget %d: median comm cost %.4f regresses >2%% vs adaptive baseline %.4f",
				row.Budget, row.MedianCommCost, base))
		}
	}
	if last := r.Rows[len(r.Rows)-1]; last.MedianCommCost > base {
		issues = append(issues, fmt.Sprintf(
			"budget %d: median comm cost %.4f worse than adaptive baseline %.4f",
			last.Budget, last.MedianCommCost, base))
	}
	return issues
}
