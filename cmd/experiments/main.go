// Command experiments regenerates the paper's tables and figures from the
// simulation substrates and prints them in the paper's layout, together
// with shape checks (who wins, does the gain grow with communication
// intensity, ...).
//
// Usage:
//
//	experiments -exp all            # everything (about 5 s)
//	experiments -exp table3         # one experiment
//	experiments -exp fig8 -patterns all
//	experiments -jobs 200           # reduced scale
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/txtplot"
	"repro/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig1, table3, fig6, table4, fig7, fig8, fig9, future, anneal or all (anneal, the quality-vs-budget sweep, only runs when asked for by name; it is not part of the paper's evaluation)")
		jobs     = flag.Int("jobs", 1000, "jobs per continuous trace")
		indJobs  = flag.Int("individual-jobs", 200, "jobs sampled for individual runs")
		seed     = flag.Int64("seed", 1, "random seed")
		comm     = flag.Float64("comm", 0.9, "fraction of communication-intensive jobs")
		share    = flag.Float64("commshare", 0.7, "communication share of a comm job's runtime")
		machines = flag.String("machines", "Intrepid,Theta,Mira", "comma-separated machine presets")
		patterns = flag.String("patterns", "binomial", "fig8 patterns: one of rd,rhvd,binomial or 'all'")
		check    = flag.Bool("check", true, "verify the paper's qualitative claims and report violations")
		costmode = flag.String("costmode", "effective-hops", "cost function: effective-hops (literal Eq. 6), hop-bytes (msize-weighted), distance-only")
		plot     = flag.Bool("plot", false, "render ASCII charts alongside the tables (fig1, fig6, fig9)")
		parallel = flag.Int("parallel", 0, "concurrent simulation runs (0 = GOMAXPROCS, 1 = sequential)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stop, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	err = run(os.Stdout, *exp, *jobs, *indJobs, *seed, *comm, *share, *machines, *patterns, *check, *costmode, *plot, *parallel)
	if serr := stop(); err == nil {
		err = serr
	}
	if merr := profiling.WriteHeap(*memProf); err == nil {
		err = merr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, jobs, indJobs int, seed int64, comm, share float64,
	machines, patterns string, check bool, costmode string, plot bool, parallel int) error {
	mode, err := costmodel.ParseMode(costmode)
	if err != nil {
		return err
	}
	var presets []workload.Preset
	for _, name := range strings.Split(machines, ",") {
		p, err := workload.PresetByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		presets = append(presets, p)
	}
	o := experiments.Options{
		Jobs: jobs, IndividualJobs: indJobs, Seed: seed,
		CommFraction: comm, CommShare: share, Machines: presets,
		CostMode: mode, Parallelism: parallel,
	}
	report := func(name string, issues []string) {
		if !check {
			return
		}
		if len(issues) == 0 {
			fmt.Fprintf(w, "[check] %s: shape reproduced\n\n", name)
			return
		}
		fmt.Fprintf(w, "[check] %s: %d violation(s):\n", name, len(issues))
		for _, s := range issues {
			fmt.Fprintln(w, "  -", s)
		}
		fmt.Fprintln(w)
	}
	want := func(name string) bool { return exp == "all" || exp == name }
	start := time.Now()

	if want("fig1") {
		res, err := experiments.Figure1(experiments.Figure1Options{})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
		// The paper measured TCP on Ethernet; rerun with the incast model
		// to show the multi-x spike magnitudes that implies.
		incast, err := experiments.Figure1(experiments.Figure1Options{IncastPenalty: 0.3})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "with TCP-incast model (penalty 0.3): during-J2 mean x%.2f of baseline"+"\n\n",
			incast.DuringMean/incast.BaselineMean)
		if plot {
			if err := txtplot.Series(w, "J1 iteration time over wall clock (J2 bursts visible as plateaus)",
				res.IterEnds, res.IterTimes, 72, 10); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		report("fig1", res.Check())
	}
	if want("table3") {
		res, err := experiments.Table3(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
		report("table3", res.Check())
	}
	if want("fig6") {
		res, err := experiments.Figure6(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
		if plot {
			labels := []string{}
			series := map[string][]float64{"greedy": {}, "balanced": {}, "adaptive": {}}
			for _, p := range res.Points {
				labels = append(labels, p.Machine+"/"+p.Set)
				series["greedy"] = append(series["greedy"], p.ReductionPct[core.Greedy])
				series["balanced"] = append(series["balanced"], p.ReductionPct[core.Balanced])
				series["adaptive"] = append(series["adaptive"], p.ReductionPct[core.Adaptive])
			}
			if err := txtplot.GroupedBars(w, "% execution-time reduction vs default",
				labels, series, []string{"greedy", "balanced", "adaptive"}, 40); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		report("fig6", res.Check())
	}
	if want("table4") {
		res, err := experiments.Table4(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
		report("table4", res.Check())
	}
	if want("fig7") {
		res, err := experiments.Figure7(o)
		if err != nil {
			return err
		}
		cont, ind := res.MaxReductionPct()
		fmt.Fprintf(w, "Figure 7: %d jobs; max per-job exec reduction: continuous %.1f%%, individual %.1f%%\n",
			len(res.JobIDs), cont, ind)
		if exp == "fig7" { // the full series only when asked for explicitly
			fmt.Fprintln(w, res.Format())
		}
		fmt.Fprintln(w)
	}
	if want("fig8") {
		pats := []collective.Pattern{collective.Binomial}
		if patterns == "all" {
			pats = []collective.Pattern{collective.RD, collective.RHVD, collective.Binomial}
		} else if patterns != "" && patterns != "binomial" {
			p, err := collective.ParsePattern(patterns)
			if err != nil {
				return err
			}
			pats = []collective.Pattern{p}
		}
		for _, p := range pats {
			res, err := experiments.Figure8(o, p)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, res.Format())
			report(fmt.Sprintf("fig8/%v", p), res.Check())
		}
	}
	if want("fig9") {
		res, err := experiments.Figure9(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
		if plot {
			labels := []string{}
			series := map[string][]float64{"default": {}, "greedy": {}, "balanced": {}, "adaptive": {}}
			for _, p := range res.Points {
				labels = append(labels, fmt.Sprintf("%d%% comm", p.CommPct))
				for _, alg := range []core.Algorithm{core.Default, core.Greedy, core.Balanced, core.Adaptive} {
					series[alg.String()] = append(series[alg.String()], p.AvgTurnaroundHours[alg])
				}
			}
			if err := txtplot.GroupedBars(w, "avg turnaround (hours)",
				labels, series, []string{"default", "greedy", "balanced", "adaptive"}, 40); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		report("fig9", res.Check())
	}
	// The anneal quality sweep is repo tooling, not part of the paper's
	// evaluation, so "all" skips it.
	if exp == "anneal" {
		res, err := experiments.AnnealQuality(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
		report("anneal", res.Check())
	}
	if want("future") {
		res, err := experiments.FutureWork(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
		report("future", res.Check())
	}
	fmt.Fprintf(w, "total: %.1fs\n", time.Since(start).Seconds())
	return nil
}
