// Command cawsverify runs the simulator's differential verification sweep:
// seeded random traces through every (algorithm × cost mode × backfill ×
// policy) configuration, with per-run invariant audits, conservation
// checks and cross-configuration metamorphic properties. On the first
// violation it prints a minimal reproducer (trace seed + configuration)
// and exits non-zero, so overnight soaks reduce to one command.
//
// Usage:
//
//	# Quick sweep: 100 seeds through the full matrix.
//	cawsverify
//
//	# Overnight soak from a later seed range.
//	cawsverify -start 100000 -seeds 50000
//
//	# Replay one failing seed and print its per-cell summary table.
//	cawsverify -start 8819 -seeds 1 -matrix
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/profiling"
	"repro/internal/verify"
)

func main() {
	var (
		start    = flag.Int64("start", 1, "first trace seed")
		seeds    = flag.Int("seeds", 100, "number of consecutive seeds to verify")
		jobs     = flag.Int("jobs", 0, "override jobs per trace (0 = derive from seed)")
		every    = flag.Int("progress", 25, "print progress every N seeds (0 = quiet)")
		matrix   = flag.Bool("matrix", false, "also print the per-cell summary table for each seed")
		parallel = flag.Int("parallel", 0, "matrix-cell worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		refSeeds = flag.Int("refseeds", 3, "seeds for the optimized-vs-reference bit-identity check (0 = skip)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stop, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cawsverify:", err)
		os.Exit(1)
	}
	err = sweep(os.Stdout, *start, *seeds, *jobs, *every, *parallel, *refSeeds, *matrix)
	if serr := stop(); err == nil {
		err = serr
	}
	if merr := profiling.WriteHeap(*memProf); err == nil {
		err = merr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cawsverify:", err)
		os.Exit(1)
	}
}

// sweep verifies `seeds` consecutive trace seeds and returns the first
// failure, whose Error() carries the reproducer line. It then proves the
// optimized fast paths bit-identical to the reference implementations over
// refSeeds seeds.
func sweep(w io.Writer, start int64, seeds, jobs, every, parallel, refSeeds int, matrix bool) error {
	if seeds <= 0 {
		return fmt.Errorf("nothing to do: -seeds %d", seeds)
	}
	for i := 0; i < seeds; i++ {
		spec := verify.DefaultSpec(start + int64(i))
		if jobs > 0 {
			spec.Jobs = jobs
		}
		if err := verify.Differential(spec, verify.ConfigsFor(spec), parallel); err != nil {
			return err
		}
		if matrix {
			if err := printMatrix(w, spec); err != nil {
				return err
			}
		}
		if every > 0 && (i+1)%every == 0 {
			fmt.Fprintf(w, "cawsverify: %d/%d seeds clean (last %v)\n", i+1, seeds, spec)
		}
	}
	for i := 0; i < refSeeds; i++ {
		spec := verify.DefaultSpec(start + int64(i))
		if jobs > 0 {
			spec.Jobs = jobs
		}
		if err := verify.ReferenceEquivalence(spec, parallel); err != nil {
			return err
		}
	}
	// Specs that draw a fault schedule run the extra fault cells on top of
	// the base matrix, so report the count as a range.
	cells := fmt.Sprintf("%d(+%d fault)", len(verify.AllConfigs()), len(verify.FaultConfigs()))
	if refSeeds > 0 {
		fmt.Fprintf(w, "cawsverify: optimized vs reference schedules bit-identical over %d seeds × %s configurations\n",
			refSeeds, cells)
	}
	fmt.Fprintf(w, "cawsverify: PASS: %d seeds × %s configurations, no violations\n",
		seeds, cells)
	return nil
}

func printMatrix(w io.Writer, spec verify.TraceSpec) error {
	sums, err := verify.RunMatrix(spec)
	if err != nil {
		return err
	}
	configs := verify.ConfigsFor(spec)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# %v\nconfig\tmakespan_h\tavg_wait_h\tnode_h\tavg_comm_cost\n", spec)
	for i, s := range sums {
		fmt.Fprintf(tw, "%v\t%.4f\t%.4f\t%.2f\t%.4f\n",
			configs[i], s.MakespanHours, s.AvgWaitHours, s.TotalNodeHours, s.AvgCommCost)
	}
	return tw.Flush()
}
