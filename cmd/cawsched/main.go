// Command cawsched runs the communication-aware scheduler simulator over a
// job trace and reports the paper's evaluation metrics.
//
// Usage:
//
//	cawsched [flags]
//
// Examples:
//
//	# Compare all four algorithms on a synthetic Theta trace.
//	cawsched -machine Theta -jobs 1000 -comm 0.9 -pattern RHVD -compare
//
//	# Run one algorithm on a real SWF log over a custom topology.conf.
//	cawsched -topology cluster.conf -log intrepid.swf -alg balanced -pattern RD
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/swf"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	var (
		machine   = flag.String("machine", "Theta", "machine preset: Intrepid, Theta or Mira (ignored with -topology)")
		topoPath  = flag.String("topology", "", "SLURM topology.conf file (overrides -machine)")
		logPath   = flag.String("log", "", "SWF job log (default: synthesize from the machine preset)")
		jobs      = flag.Int("jobs", 1000, "number of jobs (synthetic trace or SWF prefix)")
		seed      = flag.Int64("seed", 1, "random seed for synthesis and tagging")
		algName   = flag.String("alg", "adaptive", "allocation algorithm: default, greedy, balanced, adaptive, balanced-nopow2, anneal")
		patName   = flag.String("pattern", "RHVD", "collective pattern of comm-intensive jobs: RD, RHVD, Binomial, Ring")
		commFrac  = flag.Float64("comm", 0.9, "fraction of jobs tagged communication-intensive")
		commShare = flag.Float64("commshare", 0.7, "fraction of a comm job's runtime spent communicating")
		compare   = flag.Bool("compare", false, "run all four algorithms and print a comparison")
		noBF      = flag.Bool("nobackfill", false, "disable EASY backfilling (strict FIFO)")
		remap     = flag.Bool("remap", false, "enable post-allocation rank remapping (process mapping)")
		policy    = flag.String("policy", "fifo", "queue policy: fifo, sjf, widest")
		perJob    = flag.Bool("perjob", false, "print per-job results")
		csvPath   = flag.String("csv", "", "write per-job results of the last run as CSV to this file")
		jsonPath  = flag.String("json", "", "write the algorithm comparison as JSON to this file")
		validate  = flag.Bool("validate", true, "self-audit every run (capacity, ordering, backfill legality, Eq. 7)")
		mtbf      = flag.Float64("mtbf", 0, "per-node mean time between failures in seconds (0 disables fault injection)")
		mttr      = flag.Float64("mttr", 3600, "per-node mean time to repair in seconds")
		drainFrac = flag.Float64("drainfrac", 0.25, "fraction of outages that are graceful drains instead of hard failures")
		faultSeed = flag.Int64("faultseed", 1, "seed for the fault-injection model")
	)
	flag.Parse()
	fm := faults.Model{MTBF: *mtbf, MTTR: *mttr, DrainFraction: *drainFrac, Seed: *faultSeed}
	if err := run(*machine, *topoPath, *logPath, *jobs, *seed, *algName, *patName, *policy,
		*commFrac, *commShare, *compare, *noBF, *remap, *perJob, *validate, *csvPath, *jsonPath, fm); err != nil {
		fmt.Fprintln(os.Stderr, "cawsched:", err)
		os.Exit(1)
	}
}

func run(machine, topoPath, logPath string, jobs int, seed int64, algName, patName, policyName string,
	commFrac, commShare float64, compare, noBF, remap, perJob, validate bool, csvPath, jsonPath string, fm faults.Model) error {
	pattern, err := collective.ParsePattern(patName)
	if err != nil {
		return err
	}
	policy, err := sim.ParsePolicy(policyName)
	if err != nil {
		return err
	}

	var topo *topology.Topology
	preset, presetErr := workload.PresetByName(machine)
	if topoPath != "" {
		if topo, err = topology.LoadConfig(topoPath); err != nil {
			return err
		}
	} else {
		if presetErr != nil {
			return presetErr
		}
		topo = preset.NewTopology()
	}

	var trace workload.Trace
	if logPath != "" {
		log, err := swf.Load(logPath)
		if err != nil {
			return err
		}
		trace = workload.FromSWF(log, logPath, topo.NumNodes(), jobs)
		if len(trace.Jobs) == 0 {
			return fmt.Errorf("no usable jobs in %s", logPath)
		}
	} else {
		if presetErr != nil {
			return presetErr
		}
		trace = preset.Synthesize(jobs, seed)
	}
	trace, err = trace.Tag(commFrac, collective.SinglePattern(pattern, commShare), seed+17)
	if err != nil {
		return err
	}
	st := trace.ComputeStats()
	fmt.Printf("trace: %s — %d jobs, %d..%d nodes, %d comm-intensive, machine %d nodes\n",
		trace.Name, st.Jobs, st.MinNodes, st.MaxNodes, st.CommJobs, topo.NumNodes())

	var ftrace faults.Trace
	if fm.MTBF > 0 {
		// Cover the submit span plus the time a perfectly packed machine
		// would need to drain the queue, so outages can hit late jobs too.
		horizon := st.SpanSec + st.TotalNodeSec/float64(topo.NumNodes())
		ftrace = fm.Generate(topo.NumNodes(), horizon)
		fmt.Printf("faults: MTBF %.0fs, MTTR %.0fs, drain %.0f%% — %d events over %.1fh\n",
			fm.MTBF, fm.MTTR, fm.DrainFraction*100, len(ftrace), horizon/3600)
	}

	algs := []core.Algorithm{}
	if compare {
		algs = append(algs, core.Algorithms...)
	} else {
		a, err := core.ParseAlgorithm(algName)
		if err != nil {
			return err
		}
		algs = append(algs, a)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if len(ftrace) > 0 {
		fmt.Fprintln(w, "algorithm\texec(h)\twait(h)\tavg TAT(h)\tnode-hours\tavg comm cost\tmakespan(h)\trequeues\tlost(nh)")
	} else {
		fmt.Fprintln(w, "algorithm\texec(h)\twait(h)\tavg TAT(h)\tnode-hours\tavg comm cost\tmakespan(h)")
	}
	var results []*sim.Result
	for _, alg := range algs {
		cfg := sim.Config{
			Topology: topo, Algorithm: alg, DisableBackfill: noBF, RankRemap: remap,
			Policy: policy, Faults: ftrace,
		}
		var res *sim.Result
		if validate {
			res, err = sim.RunContinuousValidated(cfg, trace)
		} else {
			res, err = sim.RunContinuous(cfg, trace)
		}
		if err != nil {
			return err
		}
		results = append(results, res)
		s := res.Summary
		if len(ftrace) > 0 {
			fmt.Fprintf(w, "%v\t%.1f\t%.1f\t%.2f\t%.0f\t%.2f\t%.1f\t%d\t%.1f\n",
				alg, s.TotalExecHours, s.TotalWaitHours, s.AvgTurnaroundHours,
				s.TotalNodeHours, s.AvgCommCost, s.MakespanHours,
				s.Requeues, s.LostNodeHours)
		} else {
			fmt.Fprintf(w, "%v\t%.1f\t%.1f\t%.2f\t%.0f\t%.2f\t%.1f\n",
				alg, s.TotalExecHours, s.TotalWaitHours, s.AvgTurnaroundHours,
				s.TotalNodeHours, s.AvgCommCost, s.MakespanHours)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if compare && len(results) > 1 {
		base := results[0].Summary
		fmt.Println()
		for _, res := range results[1:] {
			fmt.Printf("%v vs default: exec %+.2f%%, wait %+.2f%%, turnaround %+.2f%%\n",
				res.Algorithm,
				metrics.ImprovementPct(base.TotalExecHours, res.Summary.TotalExecHours),
				metrics.ImprovementPct(base.TotalWaitHours, res.Summary.TotalWaitHours),
				metrics.ImprovementPct(base.AvgTurnaroundHours, res.Summary.AvgTurnaroundHours))
		}
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		if err := export.JobsCSV(f, results[len(results)-1]); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := export.ComparisonJSON(f, results); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if perJob {
		fmt.Println()
		pw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(pw, "job\tnodes\tclass\tsubmit\tstart\texec\tratio\tcost")
		for _, jr := range results[len(results)-1].Jobs {
			class := "compute"
			if jr.Comm {
				class = "comm"
			}
			fmt.Fprintf(pw, "%d\t%d\t%s\t%.0f\t%.0f\t%.0f\t%.3f\t%.1f\n",
				jr.ID, jr.Nodes, class, jr.Submit, jr.Start, jr.Exec, jr.CostRatio, jr.CommCost)
		}
		if err := pw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
