// Command cawsweep runs full parameter grids over the scheduler simulator
// and emits CSV for plotting — a generalisation of the paper's individual
// experiments for sensitivity studies.
//
// Usage:
//
//	cawsweep -machines Theta -patterns rd,rhvd -comm 0.3,0.6,0.9 \
//	         -commshare 0.3,0.5,0.7 -jobs 500 -o sweep.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	var (
		machines  = flag.String("machines", "Theta", "comma-separated machine presets")
		patterns  = flag.String("patterns", "rhvd", "comma-separated patterns (rd,rhvd,binomial,ring,stencil)")
		comm      = flag.String("comm", "0.9", "comma-separated comm-intensive job fractions")
		commShare = flag.String("commshare", "0.7", "comma-separated per-job communication shares")
		algs      = flag.String("algs", "default,greedy,balanced,adaptive", "comma-separated algorithms (default,greedy,balanced,adaptive,balanced-nopow2,anneal)")
		jobs      = flag.Int("jobs", 500, "jobs per trace")
		seed      = flag.Int64("seed", 1, "random seed")
		costMode  = flag.String("costmode", "effective-hops", "cost function")
		policy    = flag.String("policy", "fifo", "queue policy: fifo, sjf, widest")
		parallel  = flag.Int("parallel", 0, "grid cells simulated concurrently (0 = GOMAXPROCS); output is identical at every setting")
		out       = flag.String("o", "", "output CSV file (default stdout)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stop, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cawsweep:", err)
		os.Exit(1)
	}
	err = run(*machines, *patterns, *comm, *commShare, *algs, *jobs, *seed,
		*costMode, *policy, *parallel, *out)
	if serr := stop(); err == nil {
		err = serr
	}
	if merr := profiling.WriteHeap(*memProf); err == nil {
		err = merr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cawsweep:", err)
		os.Exit(1)
	}
}

func run(machines, patterns, comm, commShare, algs string, jobs int, seed int64,
	costMode, policy string, parallel int, out string) error {
	g := sweep.Grid{Jobs: jobs, Seed: seed, Parallelism: parallel}
	for _, name := range strings.Split(machines, ",") {
		p, err := workload.PresetByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		g.Machines = append(g.Machines, p)
	}
	for _, name := range strings.Split(patterns, ",") {
		p, err := collective.ParsePattern(name)
		if err != nil {
			return err
		}
		g.Patterns = append(g.Patterns, p)
	}
	var err error
	if g.CommFractions, err = parseFloats(comm); err != nil {
		return err
	}
	if g.CommShares, err = parseFloats(commShare); err != nil {
		return err
	}
	for _, name := range strings.Split(algs, ",") {
		a, err := core.ParseAlgorithm(name)
		if err != nil {
			return err
		}
		g.Algorithms = append(g.Algorithms, a)
	}
	if g.CostMode, err = costmodel.ParseMode(costMode); err != nil {
		return err
	}
	if g.Policy, err = sim.ParsePolicy(policy); err != nil {
		return err
	}

	points, err := sweep.Run(g)
	if err != nil {
		return err
	}
	// Name the cost-evaluation path the cells report having run: a sweep
	// on the reference loop instead of the kernel it claims to benchmark
	// would be invisible in the numbers alone.
	fmt.Fprintf(os.Stderr, "cawsweep: %d runs, cost kernel: %s\n", len(points), points[0].Kernel)
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return sweep.WriteCSV(w, points)
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
