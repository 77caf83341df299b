package sweep

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/workload"
)

func smallGrid() Grid {
	return Grid{
		Machines:      []workload.Preset{workload.Theta},
		Patterns:      []collective.Pattern{collective.RD, collective.Binomial},
		CommFractions: []float64{0.3, 0.9},
		CommShares:    []float64{0.7},
		Algorithms:    []core.Algorithm{core.Default, core.Adaptive},
		Jobs:          80,
		Seed:          5,
	}
}

func TestGridSizeAndDefaults(t *testing.T) {
	g := smallGrid()
	if got := g.Size(); got != 1*2*2*1*2 {
		t.Fatalf("Size = %d, want 8", got)
	}
	d := Grid{}.withDefaults()
	if d.Jobs != 500 || len(d.Algorithms) != 4 || len(d.Machines) != 1 {
		t.Fatalf("defaults: %+v", d)
	}
	if (Grid{}).Size() != 4 {
		t.Fatalf("default Size = %d, want 4", (Grid{}).Size())
	}
}

func TestRunGrid(t *testing.T) {
	points, err := Run(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("%d points, want 8", len(points))
	}
	// Deterministic order: machine, pattern, fraction, share, algorithm.
	if points[0].Pattern != collective.RD || points[0].CommFraction != 0.3 ||
		points[0].Algorithm != core.Default {
		t.Fatalf("first point out of order: %+v", points[0])
	}
	for _, p := range points {
		if p.Summary.Jobs != 80 {
			t.Fatalf("point %+v has %d jobs", p, p.Summary.Jobs)
		}
		if p.Summary.TotalExecHours <= 0 {
			t.Fatalf("point %+v has no exec time", p)
		}
	}
	// Adaptive should not lose to default at 90% comm.
	var def, adap float64
	for _, p := range points {
		if p.CommFraction == 0.9 && p.Pattern == collective.RD {
			switch p.Algorithm {
			case core.Default:
				def = p.Summary.TotalExecHours
			case core.Adaptive:
				adap = p.Summary.TotalExecHours
			}
		}
	}
	if def == 0 || adap > def*1.02 {
		t.Fatalf("adaptive %v vs default %v at 90%% comm", adap, def)
	}
}

func TestWriteCSV(t *testing.T) {
	points, err := Run(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 9 { // header + 8
		t.Fatalf("%d records, want 9", len(records))
	}
	improvCol := len(records[0]) - 1
	if records[0][improvCol] != "exec_improvement_pct" {
		t.Fatalf("header = %v", records[0])
	}
	for _, rec := range records[1:] {
		improv, err := strconv.ParseFloat(rec[improvCol], 64)
		if err != nil {
			t.Fatal(err)
		}
		if rec[4] == "default" && improv != 0 {
			t.Fatalf("default improvement %v, want 0", improv)
		}
	}
}

func TestRunGridError(t *testing.T) {
	g := smallGrid()
	g.CommFractions = []float64{2.0} // invalid tag fraction
	if _, err := Run(g); err == nil {
		t.Fatal("invalid fraction accepted")
	}
}

// TestRunGridParallelismByteIdentical is the sharding determinism
// property: the same grid serialized after runs at parallelism 1, 4 and
// NumCPU must produce byte-identical CSV. Cells are independent
// simulations collected in expansion order, so the worker count is a
// wall-clock knob only; any divergence means a cell observed another
// cell's state.
func TestRunGridParallelismByteIdentical(t *testing.T) {
	var outputs []string
	for _, parallel := range []int{1, 4, runtime.NumCPU()} {
		g := smallGrid()
		g.Parallelism = parallel
		points, err := Run(g)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallel, err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, points); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.String())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("CSV differs between parallelism 1 and %d:\n%s\nvs\n%s",
				[]int{1, 4, runtime.NumCPU()}[i], outputs[0], outputs[i])
		}
	}
}

// annealGrid is smallGrid with annealing cells: the anneal selector's
// seeded PRNG must keep the whole sweep deterministic.
func annealGrid() Grid {
	g := smallGrid()
	g.Patterns = []collective.Pattern{collective.RD}
	g.Algorithms = []core.Algorithm{core.Default, core.Adaptive, core.Anneal}
	g.Jobs = 60
	return g
}

// TestRunGridAnnealParallelismByteIdentical extends the sharding
// determinism property to annealing cells: CSV from runs at parallelism
// 1, 4 and NumCPU — and from a repeated run with the same seed — must be
// byte-identical. The anneal selector threads its PRNG explicitly and
// mixes in the job ID, so neither worker count nor scheduling order may
// leak into its placements.
func TestRunGridAnnealParallelismByteIdentical(t *testing.T) {
	parallelisms := []int{1, 4, runtime.NumCPU(), 1} // trailing 1: repeat of the first run
	var outputs []string
	for _, parallel := range parallelisms {
		g := annealGrid()
		g.Parallelism = parallel
		points, err := Run(g)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallel, err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, points); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.String())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("CSV differs between run 0 (parallelism 1) and run %d (parallelism %d):\n%s\nvs\n%s",
				i, parallelisms[i], outputs[0], outputs[i])
		}
	}
	// The anneal rows must actually be present (not silently dropped).
	if !strings.Contains(outputs[0], ",anneal,") {
		t.Fatalf("no anneal rows in sweep CSV:\n%s", outputs[0])
	}
}

// TestRunGridDeterministicFirstFailure pins the failure contract: with
// several failing cells in flight, Run reports the lowest-indexed failing
// cell — the same failure the sequential loop would hit first — at every
// parallelism, wrapped with that cell's grid coordinates.
func TestRunGridDeterministicFirstFailure(t *testing.T) {
	var msgs []string
	for _, parallel := range []int{1, 4, runtime.NumCPU()} {
		g := smallGrid()
		// Fractions beyond 1 fail tagging; every (pattern, 2.0/3.0, alg)
		// cell errors, the valid 0.3 cells do not.
		g.CommFractions = []float64{0.3, 2.0, 3.0}
		g.Parallelism = parallel
		_, err := Run(g)
		if err == nil {
			t.Fatalf("parallelism %d: invalid fractions accepted", parallel)
		}
		msgs = append(msgs, err.Error())
	}
	// The first failing cell in expansion order is the first pattern at
	// fraction 2.0 with the first algorithm.
	if !strings.Contains(msgs[0], "sweep Theta/RD/2.00/0.70/default") {
		t.Fatalf("first failure lacks lowest-cell coordinates: %s", msgs[0])
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i] != msgs[0] {
			t.Fatalf("first failure differs across parallelism:\n%s\nvs\n%s", msgs[0], msgs[i])
		}
	}
}

// TestKernelColumnFollowsGridMode pins the cost_kernel column to the mode
// the grid asked for, cell by cell, at parallelism 1, 4 and NumCPU: every
// cell of a Grid{Reference: true} CSV reads "reference", every cell of a
// default grid "aggregated" (the column is recorded per cell by concurrent
// workers off the state each run built). The two sweeps are the same
// simulations priced two ways, so apart from that column the CSVs must be
// byte-identical.
func TestKernelColumnFollowsGridMode(t *testing.T) {
	render := func(reference bool, parallel int) string {
		t.Helper()
		g := smallGrid()
		g.Jobs, g.Reference, g.Parallelism = 40, reference, parallel
		points, err := Run(g)
		if err != nil {
			t.Fatalf("reference=%v parallelism %d: %v", reference, parallel, err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, points); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, parallel := range []int{1, 4, runtime.NumCPU()} {
		csvs := map[string]string{"aggregated": render(false, parallel), "reference": render(true, parallel)}
		for want, out := range csvs {
			records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if records[0][5] != "cost_kernel" || len(records) != 9 {
				t.Fatalf("parallelism %d: %d records, header %v", parallel, len(records), records[0])
			}
			for _, rec := range records[1:] {
				if rec[5] != want {
					t.Fatalf("parallelism %d: cost_kernel = %q, want %q (row %v)", parallel, rec[5], want, rec)
				}
			}
		}
		if got := strings.ReplaceAll(csvs["reference"], ",reference,", ",aggregated,"); got != csvs["aggregated"] {
			t.Fatalf("parallelism %d: reference and default sweeps differ beyond the kernel column:\n%s\nvs\n%s",
				parallel, csvs["reference"], csvs["aggregated"])
		}
	}
}

// TestEachDeterministicFirstFailure pins the worker pool's failure
// semantics: whatever the pool size and the interleaving, the reported
// error is the lowest-indexed failing cell, and every cell runs exactly
// once.
func TestEachDeterministicFirstFailure(t *testing.T) {
	for _, parallelism := range []int{1, 4, 16} {
		ran := make([]int, 40)
		err := Each(len(ran), parallelism, func(i int) error {
			ran[i]++
			if i == 7 || i == 23 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Errorf("parallelism %d: err = %v, want cell 7", parallelism, err)
		}
		for i, n := range ran {
			if n != 1 {
				t.Errorf("parallelism %d: cell %d ran %d times", parallelism, i, n)
			}
		}
	}
	if err := Each(5, 8, func(int) error { return nil }); err != nil {
		t.Errorf("clean pool returned %v", err)
	}
}

// TestMixesAxis pins the mix axis: a grid of single-pattern mixes is the
// Patterns × CommShares grid it spells out, CSV byte for byte, and a grid
// of the paper's sets A–E carries each set's name, primary pattern and
// total share, in Mixes order.
func TestMixesAxis(t *testing.T) {
	render := func(g Grid) string {
		t.Helper()
		points, err := Run(g)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, points); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	g := smallGrid()
	g.Jobs = 40
	g.CommShares = []float64{0.5, 0.7}
	mixed := g
	mixed.Patterns, mixed.CommShares = nil, nil
	for _, pat := range g.Patterns {
		for _, share := range g.CommShares {
			mixed.Mixes = append(mixed.Mixes, collective.SinglePattern(pat, share))
		}
	}
	// The fraction axis sits between a pattern and its shares, so the row
	// orders agree only with one fraction.
	g.CommFractions, mixed.CommFractions = []float64{0.9}, []float64{0.9}
	if got, want := render(mixed), render(g); got != want {
		t.Fatalf("single-pattern mixes differ from the pattern grid:\n%s\nvs\n%s", got, want)
	}

	sets := smallGrid()
	sets.Jobs, sets.CommFractions = 40, []float64{0.9}
	sets.Mixes = collective.ExperimentSets
	if got, want := sets.Size(), len(collective.ExperimentSets)*len(sets.Algorithms); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	points, err := Run(sets)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		m := collective.ExperimentSets[i/len(sets.Algorithms)]
		primary, _ := m.PrimaryPattern()
		if p.Mix != m.Name || p.Pattern != primary || p.CommShare != m.CommFrac() ||
			p.Algorithm != sets.Algorithms[i%len(sets.Algorithms)] {
			t.Fatalf("point %d = %s/%v/%v/%v, want mix %s", i, p.Mix, p.Pattern, p.CommShare, p.Algorithm, m.Name)
		}
	}
}
