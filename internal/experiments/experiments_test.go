package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/workload"
)

// quickOpts shrinks the experiments to test scale while keeping the
// qualitative shape checks meaningful.
func quickOpts() Options {
	return Options{
		Jobs:           200,
		IndividualJobs: 40,
		Seed:           1,
		CommFraction:   0.9,
		CommShare:      0.7,
		Machines:       []workload.Preset{workload.Theta},
	}
}

func TestTable3Quick(t *testing.T) {
	res, err := Table3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // 1 machine × 2 patterns
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Cells) != 4 {
			t.Fatalf("row %s/%v has %d cells", row.Machine, row.Pattern, len(row.Cells))
		}
		for alg, c := range row.Cells {
			if c.ExecHours <= 0 {
				t.Errorf("%s/%v/%v: exec %v", row.Machine, row.Pattern, alg, c.ExecHours)
			}
		}
	}
	if issues := res.Check(); len(issues) != 0 {
		t.Errorf("shape violations: %v", issues)
	}
	out := res.Format()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "Theta") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestFigure6Quick(t *testing.T) {
	res, err := Figure6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 { // 1 machine × sets A-E
		t.Fatalf("%d points, want 5", len(res.Points))
	}
	if issues := res.Check(); len(issues) != 0 {
		t.Errorf("shape violations: %v", issues)
	}
	if !strings.Contains(res.Format(), "Figure 6") {
		t.Error("format missing title")
	}
}

func TestTable4Quick(t *testing.T) {
	res, err := Table4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.JobsEvaluated == 0 {
			t.Fatalf("%s/%v evaluated no jobs", row.Machine, row.Pattern)
		}
	}
	if issues := res.Check(); len(issues) != 0 {
		t.Errorf("shape violations: %v", issues)
	}
	if !strings.Contains(res.Format(), "Table 4") {
		t.Error("format missing title")
	}
}

func TestFigure7Quick(t *testing.T) {
	res, err := Figure7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JobIDs) == 0 {
		t.Fatal("no jobs in series")
	}
	for _, alg := range []core.Algorithm{core.Default, core.Greedy, core.Balanced, core.Adaptive} {
		if len(res.Continuous[alg]) != len(res.JobIDs) || len(res.Individual[alg]) != len(res.JobIDs) {
			t.Fatalf("series length mismatch for %v", alg)
		}
	}
	cont, ind := res.MaxReductionPct()
	if cont < 0 || ind < 0 {
		t.Errorf("max reductions %v/%v negative", cont, ind)
	}
	if !strings.Contains(res.Format(), "Figure 7") {
		t.Error("format missing title")
	}
}

func TestFigure8Quick(t *testing.T) {
	res, err := Figure8(quickOpts(), collective.Binomial)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 {
		t.Fatalf("%d series, want 1", len(res.Series))
	}
	s := res.Series[0]
	nonEmpty := 0
	for _, b := range s.Buckets[core.Default] {
		if b.Jobs > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no populated cost buckets")
	}
	if issues := res.Check(); len(issues) != 0 {
		t.Errorf("shape violations: %v", issues)
	}
	if !strings.Contains(res.Format(), "Figure 8") {
		t.Error("format missing title")
	}
}

func TestFigure9Quick(t *testing.T) {
	o := quickOpts()
	res, err := Figure9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("%d points, want 3", len(res.Points))
	}
	if issues := res.Check(); len(issues) != 0 {
		t.Errorf("shape violations: %v", issues)
	}
	if !strings.Contains(res.Format(), "Figure 9") {
		t.Error("format missing title")
	}
}

func TestFigure1Quick(t *testing.T) {
	res, err := Figure1(Figure1Options{Duration: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterTimes) == 0 || len(res.J2Windows) == 0 {
		t.Fatalf("empty series: %d iters, %d windows", len(res.IterTimes), len(res.J2Windows))
	}
	if issues := res.Check(); len(issues) != 0 {
		t.Errorf("shape violations: %v", issues)
	}
	if !strings.Contains(res.Format(), "correlation") {
		t.Error("format missing correlation")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Jobs != 1000 || o.IndividualJobs != 200 || o.CommFraction != 0.9 ||
		o.CommShare != 0.7 || len(o.Machines) != 3 || o.Parallelism < 1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	f := Figure1Options{}.withDefaults()
	if f.MessageBytes != 1e6 || f.Duration != 60 || f.J2Period != 15 || f.J2Iterations != 40 {
		t.Fatalf("figure1 defaults wrong: %+v", f)
	}
}

func TestFutureWorkQuick(t *testing.T) {
	res, err := FutureWork(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Rows))
	}
	if issues := res.Check(); len(issues) != 0 {
		t.Errorf("shape violations: %v", issues)
	}
	if !strings.Contains(res.Format(), "ring/stencil") {
		t.Error("format missing title")
	}
}

func TestAnnealQualityQuick(t *testing.T) {
	o := quickOpts()
	o.Jobs = 80
	res, err := AnnealQuality(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(AnnealBudgets) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(AnnealBudgets))
	}
	for i, row := range res.Rows {
		if row.Budget != AnnealBudgets[i] {
			t.Fatalf("row %d budget %d, want %d", i, row.Budget, AnnealBudgets[i])
		}
		if row.MedianCommCost <= 0 || row.ExecHours <= 0 {
			t.Fatalf("row %d empty: %+v", i, row)
		}
	}
	if issues := res.Check(); len(issues) != 0 {
		t.Fatalf("check: %v", issues)
	}
	text := res.Format()
	for _, want := range []string{"budget", "median_comm_cost", "1024"} {
		if !strings.Contains(text, want) {
			t.Fatalf("format missing %q:\n%s", want, text)
		}
	}
	// Determinism: the pin below depends on repeat runs agreeing exactly.
	again, err := AnnealQuality(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if again.Rows[i] != res.Rows[i] {
			t.Fatalf("row %d differs across runs: %+v vs %+v", i, again.Rows[i], res.Rows[i])
		}
	}

	// The gate workload (Theta, RD, 150 jobs, seed 1; EXPERIMENTS.md
	// "Anneal quality vs budget"). The sweep is deterministic, so the
	// table is asserted exactly: any drift is a behaviour change in the
	// annealer's trajectory, the selectors, the cost model or the
	// simulator, and the numbers move only with the reason stated.
	o.Jobs = 150
	gate, err := AnnealQuality(o)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ median, execHours string }{
		{"18.8962", "249.2"}, {"17.9781", "247.2"}, {"18.0874", "249.4"}, {"18.1421", "247.8"},
	}
	for i, row := range gate.Rows {
		median, execHours := fmt.Sprintf("%.4f", row.MedianCommCost), fmt.Sprintf("%.1f", row.ExecHours)
		if median != want[i].median || execHours != want[i].execHours {
			t.Errorf("budget %d: median %s exec hours %s, want %s and %s",
				row.Budget, median, execHours, want[i].median, want[i].execHours)
		}
	}
}

// TestFailingGridReportsLowestCell pins the failure contract the
// experiments share with the sweep: with every cell failing (a comm
// fraction above 1 fails tagging), the error reported at every
// parallelism is the first cell's in grid order — the first machine,
// pattern and algorithm — not whichever worker failed first.
func TestFailingGridReportsLowestCell(t *testing.T) {
	o := quickOpts()
	o.Jobs = 40
	o.CommFraction = 2
	for _, parallel := range []int{1, 4, 16} {
		o.Parallelism = parallel
		_, err := Table3(o)
		if err == nil {
			t.Fatalf("parallelism %d: invalid fraction accepted", parallel)
		}
		if want := "sweep Theta/RHVD/2.00/0.70/default: "; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("parallelism %d: err = %v, want the first cell's (%s...)", parallel, err, want)
		}
	}
}
