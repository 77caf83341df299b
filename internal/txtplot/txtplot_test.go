package txtplot

import (
	"strings"
	"testing"
)

func TestGroupedBars(t *testing.T) {
	var b strings.Builder
	series := map[string][]float64{
		"greedy":   {1, 2},
		"balanced": {2, 4},
	}
	err := GroupedBars(&b, "fig6", []string{"A", "B"}, series, []string{"greedy", "balanced"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"fig6", "A", "B", "greedy", "balanced"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if err := GroupedBars(&b, "", []string{"A"}, series, []string{"missing"}, 8); err == nil {
		t.Error("missing series accepted")
	}
	if err := GroupedBars(&b, "", []string{"A"}, series, []string{"greedy"}, 8); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSeries(t *testing.T) {
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 1
		if i >= 40 && i < 60 {
			ys[i] = 2 // a plateau in the middle, like a contention window
		}
	}
	var b strings.Builder
	if err := Series(&b, "J1 iteration time", xs, ys, 50, 6); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 8 { // title + 6 rows + x range
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Top row holds the plateau, bottom row the baseline.
	if !strings.Contains(lines[1], "*") || !strings.Contains(lines[6], "*") {
		t.Fatalf("series rows empty:\n%s", out)
	}
	if !strings.Contains(lines[1], "2") || !strings.Contains(lines[6], "1") {
		t.Fatalf("min/max annotations missing:\n%s", out)
	}
	if err := Series(&b, "", nil, nil, 10, 5); err == nil {
		t.Error("empty series accepted")
	}
	if err := Series(&b, "", []float64{1}, []float64{1, 2}, 10, 5); err == nil {
		t.Error("length mismatch accepted")
	}
	// Constant series and single point degrade gracefully.
	if err := Series(&b, "", []float64{5}, []float64{3}, 10, 4); err != nil {
		t.Fatal(err)
	}
}
