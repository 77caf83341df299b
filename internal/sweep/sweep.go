// Package sweep runs full parameter grids over the simulator — machine ×
// pattern (or mix) × communication fraction × communication share ×
// algorithm — and renders the results as CSV. The paper's continuous-run
// experiments (internal/experiments) are single slices of this grid; the
// sweep generalises them for sensitivity studies (e.g. "at what
// communication share does balanced overtake greedy on a Mira-like
// machine?"). Each is the one worker pool the sweep, the experiments and
// the differential harness run their cells on.
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
	// Mixes, when set, replaces the Patterns × CommShares axis: each cell
	// tags its jobs with one mix, such as the paper's two-pattern sets D
	// and E (collective.ExperimentSets).
	Mixes       []collective.Mix
	Algorithms  []core.Algorithm
	Jobs        int
	Seed        int64
	CostMode    costmodel.Mode
	Policy      sim.Policy
	Parallelism int
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
	return g
}

// mixGroups is the grid's mix axis, one group per pattern (its
// single-pattern mixes, one per share) or one per Mixes entry. The
// communication fraction loop runs between a group and its mixes, which
// keeps the row order of a Patterns × CommShares grid.
func (g Grid) mixGroups() [][]collective.Mix {
	if len(g.Mixes) > 0 {
		groups := make([][]collective.Mix, len(g.Mixes))
		for i := range g.Mixes {
			groups[i] = g.Mixes[i : i+1]
		}
		return groups
	}
	groups := make([][]collective.Mix, len(g.Patterns))
	for i, pat := range g.Patterns {
		for _, share := range g.CommShares {
			groups[i] = append(groups[i], collective.SinglePattern(pat, share))
		}
	}
	return groups
}

// Size returns the number of simulation runs the grid expands to.
func (g Grid) Size() int {
	g = g.withDefaults()
	mixes := len(g.Mixes)
	if mixes == 0 {
		mixes = len(g.Patterns) * len(g.CommShares)
	}
	return len(g.Machines) * mixes * len(g.CommFractions) * len(g.Algorithms)
}

// Point is one grid cell's outcome. Pattern and CommShare are the cell
// mix's primary pattern and total communication share, which for a
// Patterns × CommShares grid are the cell's own pattern and share.
type Point struct {
	Machine      string
	Pattern      collective.Pattern
	Mix          string
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

// cell is one expanded grid coordinate: the work item the runner hands to
// a worker, carrying everything the cell needs except the machine-shared
// trace and topology.
type cell struct {
	preset workload.Preset
	topo   *topology.Topology
	trace  workload.Trace
	mix    collective.Mix
	frac   float64
	alg    core.Algorithm
}

// expand materialises the grid in its deterministic output order. The
// topology is built and the trace synthesized once per machine and shared
// across that machine's cells — building Mira's 49K-node tree per cell
// would dominate the sweep, and Tag copies the job slice so concurrent
// cells never share mutable state.
func expand(g Grid) []cell {
	groups := g.mixGroups()
	cells := make([]cell, 0, g.Size())
	for _, preset := range g.Machines {
		topo := preset.NewTopology()
		trace := preset.On(topo).Synthesize(g.Jobs, g.Seed)
		for _, mixes := range groups {
			for _, frac := range g.CommFractions {
				for _, mix := range mixes {
					for _, alg := range g.Algorithms {
						cells = append(cells, cell{
							preset: preset, topo: topo, trace: trace,
							mix: mix, frac: frac, alg: alg,
						})
					}
				}
			}
		}
	}
	return cells
}

// Each runs fn over the indexes [0, n) on a pool of min(parallelism, n)
// workers; parallelism <= 0 means GOMAXPROCS. Every index runs exactly
// once, even after a failure, and the error returned is the
// lowest-indexed one, so the outcome is the same at every pool size and
// under every goroutine schedule. fn writes its result into its own slot
// of a slice the caller sized to n.
func Each(n, parallelism int, fn func(i int) error) error {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(parallelism, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run executes the grid on Each's pool, in deterministic output order.
// Cells are independent simulations, so results are identical at every
// parallelism; on failure the lowest-indexed failing cell's error is
// returned, wrapped with the cell's grid coordinates.
func Run(g Grid) ([]Point, error) {
	g = g.withDefaults()
	cells := expand(g)
	points := make([]Point, len(cells))
	err := Each(len(cells), g.Parallelism, func(i int) error {
		c := cells[i]
		pat, _ := c.mix.PrimaryPattern()
		p := Point{Machine: c.preset.Name, Pattern: pat, Mix: c.mix.Name,
			CommFraction: c.frac, CommShare: c.mix.CommFrac(), Algorithm: c.alg}
		tagged, err := c.trace.Tag(c.frac, c.mix, g.Seed+17)
		var res *sim.Result
		if err == nil {
			res, err = sim.RunContinuousValidated(sim.Config{
				Topology: c.topo, Algorithm: c.alg,
				CostMode: g.CostMode, Policy: g.Policy,
				Reference: g.Reference,
			}, tagged)
		}
		if err != nil {
			return fmt.Errorf("sweep %s/%v/%.2f/%.2f/%v: %w",
				p.Machine, p.Pattern, p.CommFraction, p.CommShare, p.Algorithm, err)
		}
		p.Kernel, p.Summary = res.Kernel, res.Summary
		points[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// WriteCSV renders sweep points, one row per run, with improvement columns
// relative to the default algorithm of the same (machine, pattern, mix,
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
		mix     string
		frac    float64
		share   float64
	}
	base := make(map[sliceKey]float64)
	for _, p := range points {
		if p.Algorithm == core.Default {
			base[sliceKey{p.Machine, p.Pattern, p.Mix, p.CommFraction, p.CommShare}] = p.Summary.TotalExecHours
		}
	}
	for _, p := range points {
		improv := 0.0
		if b, ok := base[sliceKey{p.Machine, p.Pattern, p.Mix, p.CommFraction, p.CommShare}]; ok {
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
