package experiments

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Figure7Result reproduces Figure 7: per-job execution times of the same
// sampled Theta jobs (RD pattern) in continuous runs (left) and individual
// runs (right), under all four algorithms.
type Figure7Result struct {
	// JobIDs are the sampled trace job IDs, in plot order.
	JobIDs []int64
	// Continuous maps algorithm -> execution time per sampled job (seconds).
	Continuous map[core.Algorithm][]float64
	// Individual maps algorithm -> execution time per sampled job (seconds);
	// entries are NaN-free: jobs skipped in the individual run are dropped
	// from both series.
	Individual map[core.Algorithm][]float64
}

// Figure7 runs the experiment on the first configured machine (Theta in
// the paper's presentation; pass Options.Machines to change).
func Figure7(o Options) (*Figure7Result, error) {
	o = o.withDefaults()
	preset := pickMachine(o.Machines, "Theta")
	topo := preset.NewTopology()
	tagged, err := paperTrace(o, preset, topo, collective.RD)
	if err != nil {
		return nil, err
	}
	idx := tagged.Sample(o.IndividualJobs, o.Seed+31)

	// Individual runs, all algorithms from the same state.
	indResults, err := sim.RunIndividual(sim.IndividualConfig{Topology: topo, Seed: o.Seed + 43, CostMode: o.CostMode},
		tagged, idx, algColumns)
	if err != nil {
		return nil, err
	}
	evaluated := make(map[int]sim.IndividualResult, len(indResults))
	for _, r := range indResults {
		evaluated[r.JobIndex] = r
	}

	// Continuous runs, one per algorithm, each job's exec time by ID.
	contExec := make([]map[int64]float64, len(algColumns))
	err = sweep.Each(len(algColumns), o.Parallelism, func(k int) error {
		res, err := sim.RunContinuousValidated(sim.Config{Topology: topo, Algorithm: algColumns[k], CostMode: o.CostMode}, tagged)
		if err != nil {
			return fmt.Errorf("figure7 continuous %v: %w", algColumns[k], err)
		}
		contExec[k] = make(map[int64]float64, len(res.Jobs))
		for _, jr := range res.Jobs {
			contExec[k][jr.ID] = jr.Exec
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &Figure7Result{
		Continuous: make(map[core.Algorithm][]float64, len(algColumns)),
		Individual: make(map[core.Algorithm][]float64, len(algColumns)),
	}
	for _, i := range idx {
		r, ok := evaluated[i]
		if !ok {
			continue // job didn't fit the individual-run base state
		}
		id := int64(tagged.Jobs[i].ID)
		out.JobIDs = append(out.JobIDs, id)
		for k, alg := range algColumns {
			out.Continuous[alg] = append(out.Continuous[alg], contExec[k][id])
			out.Individual[alg] = append(out.Individual[alg], r.Exec[alg])
		}
	}
	return out, nil
}

// Format renders both sub-graphs as aligned series (one row per job).
func (r *Figure7Result) Format() string {
	header := []string{"JobID",
		"cont(def)", "cont(greedy)", "cont(bal)", "cont(adap)",
		"ind(def)", "ind(greedy)", "ind(bal)", "ind(adap)"}
	var rows [][]string
	for k, id := range r.JobIDs {
		row := []string{fmt.Sprintf("%d", id)}
		for _, alg := range algColumns {
			row = append(row, fmt.Sprintf("%.0f", r.Continuous[alg][k]))
		}
		for _, alg := range algColumns {
			row = append(row, fmt.Sprintf("%.0f", r.Individual[alg][k]))
		}
		rows = append(rows, row)
	}
	return formatTable("Figure 7: per-job execution times (s), continuous vs individual runs (RD)",
		header, rows)
}

// MaxReductionPct returns the maximum per-job percentage reduction over the
// default in the continuous and individual series — the numbers quoted in
// §6.3 ("maximum reduction of 70% and 15%...").
func (r *Figure7Result) MaxReductionPct() (continuous, individual float64) {
	for k := range r.JobIDs {
		baseC := r.Continuous[core.Default][k]
		baseI := r.Individual[core.Default][k]
		for _, alg := range []core.Algorithm{core.Greedy, core.Balanced, core.Adaptive} {
			if baseC > 0 {
				if red := (baseC - r.Continuous[alg][k]) / baseC * 100; red > continuous {
					continuous = red
				}
			}
			if baseI > 0 {
				if red := (baseI - r.Individual[alg][k]) / baseI * 100; red > individual {
					individual = red
				}
			}
		}
	}
	return continuous, individual
}
