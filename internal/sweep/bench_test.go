package sweep

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/workload"
)

// BenchmarkSweepGrid runs a small but complete sweep — trace synthesis,
// tagging, full continuous simulations, validation — under the
// leaf-aggregated kernel ("opt") and as a Grid.Reference sweep ("ref").
// The pair is the end-to-end form of the kernel speedup: the ratio is what
// a sweep user actually gains. Wall-clock scaling across -parallel settings is a
// separate, machine-dependent axis (see DESIGN.md §7); output equality
// across it is pinned by TestRunGridParallelismByteIdentical.
func BenchmarkSweepGrid(b *testing.B) {
	g := Grid{
		Machines:      []workload.Preset{workload.Theta},
		Patterns:      []collective.Pattern{collective.RD},
		CommFractions: []float64{0.9},
		CommShares:    []float64{0.7},
		Algorithms:    []core.Algorithm{core.Default, core.Adaptive},
		Jobs:          60,
		Seed:          5,
	}
	for _, mode := range []struct {
		name string
		ref  bool
	}{{"opt", false}, {"ref", true}} {
		b.Run(mode.name, func(b *testing.B) {
			g := g
			g.Reference = mode.ref
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
