// Package sweep runs full parameter grids over the simulator — machine ×
// pattern × communication fraction × communication share × algorithm —
// and renders the results as CSV. The paper's individual experiments are
// single slices of this grid; the sweep generalises them for sensitivity
// studies (e.g. "at what communication share does balanced overtake
// greedy on a Mira-like machine?").
package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Grid enumerates the sweep axes. Empty slices default to the paper's
// values.
type Grid struct {
	Machines      []workload.Preset
	Patterns      []collective.Pattern
	CommFractions []float64 // fraction of jobs tagged comm-intensive
	CommShares    []float64 // runtime share spent communicating
	Algorithms    []core.Algorithm
	Jobs          int
	Seed          int64
	CostMode      costmodel.Mode
	Policy        sim.Policy
	Parallelism   int
	// Reference runs every cell on a reference state (sim.Config.Reference).
	Reference bool
}

func (g Grid) withDefaults() Grid {
	if len(g.Machines) == 0 {
		g.Machines = []workload.Preset{workload.Theta}
	}
	if len(g.Patterns) == 0 {
		g.Patterns = []collective.Pattern{collective.RHVD}
	}
	if len(g.CommFractions) == 0 {
		g.CommFractions = []float64{0.9}
	}
	if len(g.CommShares) == 0 {
		g.CommShares = []float64{0.7}
	}
	if len(g.Algorithms) == 0 {
		g.Algorithms = core.Algorithms
	}
	if g.Jobs == 0 {
		g.Jobs = 500
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.Parallelism <= 0 {
		g.Parallelism = runtime.GOMAXPROCS(0)
	}
	return g
}

// Size returns the number of simulation runs the grid expands to.
func (g Grid) Size() int {
	g = g.withDefaults()
	return len(g.Machines) * len(g.Patterns) * len(g.CommFractions) *
		len(g.CommShares) * len(g.Algorithms)
}

// Point is one grid cell's outcome.
type Point struct {
	Machine      string
	Pattern      collective.Pattern
	CommFraction float64
	CommShare    float64
	Algorithm    core.Algorithm
	// Kernel records the cost-evaluation path the cell ran under —
	// "aggregated" for the one-pass fast path (costmodel.KernelPath; the
	// name is kept for the CSV), "reference" for the node-pair loops of a
	// Grid.Reference sweep — so sweep output is auditable: a sweep that ran
	// the O(P log P) reference path is distinguishable from one that ran
	// the kernel it is benchmarking.
	Kernel  string
	Summary metrics.Summary
}

// cell is one expanded grid coordinate: the work item the sharded runner
// hands to a worker, carrying everything the cell needs except the
// machine-shared trace and topology.
type cell struct {
	preset workload.Preset
	topo   *topology.Topology
	trace  workload.Trace
	pat    collective.Pattern
	frac   float64
	share  float64
	alg    core.Algorithm
}

// expand materialises the grid in its deterministic output order. The
// topology is built and the trace synthesized once per machine and shared
// across that machine's cells — building Mira's 49K-node tree per cell
// would dominate the sweep, and Tag copies the job slice so concurrent
// cells never share mutable state.
func expand(g Grid) []cell {
	cells := make([]cell, 0, g.Size())
	for _, preset := range g.Machines {
		topo := preset.NewTopology()
		trace := preset.On(topo).Synthesize(g.Jobs, g.Seed)
		for _, pat := range g.Patterns {
			for _, frac := range g.CommFractions {
				for _, share := range g.CommShares {
					for _, alg := range g.Algorithms {
						cells = append(cells, cell{
							preset: preset, topo: topo, trace: trace,
							pat: pat, frac: frac, share: share, alg: alg,
						})
					}
				}
			}
		}
	}
	return cells
}

// Run executes the grid sharded across a bounded worker pool, in
// deterministic output order. Cells are independent simulations, so
// results are identical at every parallelism; on failure the error of the
// lowest-indexed failing cell is returned, wrapped with the cell's grid
// coordinates — the same first failure the sequential loop would report,
// regardless of goroutine scheduling.
func Run(g Grid) ([]Point, error) {
	g = g.withDefaults()
	cells := expand(g)
	points := make([]Point, len(cells))
	errs := make([]error, len(cells))
	runCell := func(i int) {
		c := cells[i]
		tagged, err := c.trace.Tag(c.frac, collective.SinglePattern(c.pat, c.share), g.Seed+17)
		var res *sim.Result
		if err == nil {
			res, err = sim.RunContinuousValidated(sim.Config{
				Topology: c.topo, Algorithm: c.alg,
				CostMode: g.CostMode, Policy: g.Policy,
				Reference: g.Reference,
			}, tagged)
		}
		if err != nil {
			errs[i] = fmt.Errorf("sweep %s/%v/%.2f/%.2f/%v: %w",
				c.preset.Name, c.pat, c.frac, c.share, c.alg, err)
			return
		}
		points[i] = Point{
			Machine: c.preset.Name, Pattern: c.pat,
			CommFraction: c.frac, CommShare: c.share,
			Algorithm: c.alg, Kernel: res.Kernel,
			Summary: res.Summary,
		}
	}
	if workers := min(g.Parallelism, len(cells)); workers <= 1 {
		for i := range cells {
			runCell(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cells) {
						return
					}
					runCell(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// WriteCSV renders sweep points, one row per run, with improvement columns
// relative to the default algorithm of the same (machine, pattern,
// fraction, share) slice when present.
func WriteCSV(w io.Writer, points []Point) error {
	cw := csv.NewWriter(w)
	header := []string{"machine", "pattern", "comm_fraction", "comm_share", "algorithm",
		"cost_kernel",
		"total_exec_hours", "total_wait_hours", "avg_turnaround_hours",
		"total_node_hours", "avg_comm_cost", "makespan_hours",
		"exec_improvement_pct"}
	if err := cw.Write(header); err != nil {
		return err
	}
	type sliceKey struct {
		machine string
		pattern collective.Pattern
		frac    float64
		share   float64
	}
	base := make(map[sliceKey]float64)
	for _, p := range points {
		if p.Algorithm == core.Default {
			base[sliceKey{p.Machine, p.Pattern, p.CommFraction, p.CommShare}] = p.Summary.TotalExecHours
		}
	}
	for _, p := range points {
		improv := 0.0
		if b, ok := base[sliceKey{p.Machine, p.Pattern, p.CommFraction, p.CommShare}]; ok {
			improv = metrics.ImprovementPct(b, p.Summary.TotalExecHours)
		}
		row := []string{
			p.Machine, p.Pattern.String(),
			strconv.FormatFloat(p.CommFraction, 'g', -1, 64),
			strconv.FormatFloat(p.CommShare, 'g', -1, 64),
			p.Algorithm.String(),
			p.Kernel,
			fmtF(p.Summary.TotalExecHours), fmtF(p.Summary.TotalWaitHours),
			fmtF(p.Summary.AvgTurnaroundHours), fmtF(p.Summary.TotalNodeHours),
			fmtF(p.Summary.AvgCommCost), fmtF(p.Summary.MakespanHours),
			fmtF(improv),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
