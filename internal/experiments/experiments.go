// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) from the simulation substrates. Each experiment returns
// structured results plus a formatted text rendering whose rows/series
// mirror the paper's presentation. The continuous-run experiments that are
// slices of the sweep grid (Table 3, Figure 6, Figure 9, the future-work
// table) run through sweep.Run; the rest run their independent cells on
// sweep.Each. Either way the cells run on sweep.Each's worker pool, bounded
// by Options.Parallelism, and a failure reports the lowest-indexed cell.
package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Options scales the experiments. The zero value reproduces the paper's
// setup (1000 jobs, 90% communication-intensive, 200 individual jobs).
type Options struct {
	// Jobs per continuous-run trace (default 1000).
	Jobs int
	// IndividualJobs sampled for §6.3 (default 200).
	IndividualJobs int
	// Seed drives trace synthesis and tagging (default 1).
	Seed int64
	// CommFraction of jobs tagged communication-intensive where the
	// experiment does not vary it (default 0.9, as in Table 3).
	CommFraction float64
	// CommShare is the fraction of a tagged job's runtime spent in its
	// collective for single-pattern experiments (default 0.7, the "C" set).
	CommShare float64
	// Machines to evaluate (default Intrepid, Theta, Mira).
	Machines []workload.Preset
	// Parallelism bounds concurrent simulation runs (default GOMAXPROCS).
	Parallelism int
	// CostMode selects the communication cost function for the runtime
	// model. The zero value is the paper's literal Eq. 6 (effective hops),
	// under which RD and RHVD cost the same for power-of-two jobs (their
	// step sets coincide up to order); ModeHopBytes applies the §5.3
	// message-size weighting, which differentiates the patterns as the
	// paper's tables do.
	CostMode costmodel.Mode
}

func (o Options) withDefaults() Options {
	if o.Jobs == 0 {
		o.Jobs = 1000
	}
	if o.IndividualJobs == 0 {
		o.IndividualJobs = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.CommFraction == 0 {
		o.CommFraction = 0.9
	}
	if o.CommShare == 0 {
		o.CommShare = 0.7
	}
	if len(o.Machines) == 0 {
		o.Machines = workload.Presets
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// pickMachine returns the preset with the preferred name when present
// (the machine the paper uses for that figure), else the first machine.
func pickMachine(machines []workload.Preset, preferred string) workload.Preset {
	for _, m := range machines {
		if m.Name == preferred {
			return m
		}
	}
	return machines[0]
}

// patternsRHVDRD is the Table 3 / Table 4 row order: RHVD on top, RD below.
var patternsRHVDRD = []collective.Pattern{collective.RHVD, collective.RD}

// runGrid runs a slice of the sweep grid at o's scale: the four
// algorithms, o's comm fraction and share where g leaves them unset, o's
// seed, cost mode and parallelism. It returns the points in grid order,
// one row per slice of the other axes, each row in algColumns order (the
// default first).
func runGrid(o Options, g sweep.Grid) ([][]sweep.Point, error) {
	if len(g.CommFractions) == 0 {
		g.CommFractions = []float64{o.CommFraction}
	}
	g.CommShares = []float64{o.CommShare}
	g.Algorithms = algColumns
	g.Jobs, g.Seed, g.CostMode, g.Parallelism = o.Jobs, o.Seed, o.CostMode, o.Parallelism
	points, err := sweep.Run(g)
	if err != nil {
		return nil, err
	}
	var rows [][]sweep.Point
	for i := 0; i < len(points); i += len(algColumns) {
		rows = append(rows, points[i:i+len(algColumns)])
	}
	return rows, nil
}

// paperTrace synthesizes preset's trace at o's scale and tags o's comm
// fraction of its jobs with pattern at o's share, with the tag seed
// sweep.Run uses: the input of the experiments that need per-job or
// individual-run results.
func paperTrace(o Options, preset workload.Preset, topo *topology.Topology,
	pattern collective.Pattern) (workload.Trace, error) {
	return preset.On(topo).Synthesize(o.Jobs, o.Seed).Tag(o.CommFraction,
		collective.SinglePattern(pattern, o.CommShare), o.Seed+17)
}

// algColumns is the table column order used throughout.
var algColumns = []core.Algorithm{core.Default, core.Greedy, core.Balanced, core.Adaptive}

// formatTable renders rows of cells with a header, aligning columns.
func formatTable(title string, header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}
