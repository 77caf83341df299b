package sim

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/workload"
)

// BenchmarkRunContinuous replays a communication-heavy Theta trace under
// the adaptive algorithm on an optimized state ("opt") and on a reference
// state, cluster and costmodel on their reference implementations ("ref").
// The two schedules are bit-identical (see verify.ReferenceEquivalence); the
// committed BENCH_*.json tracks the speedup between them.
func BenchmarkRunContinuous(b *testing.B) {
	trace := workload.Theta.Synthesize(300, 1).
		MustTag(0.9, collective.SinglePattern(collective.RD, 0.7), 2)
	topo := topology.Theta()
	for _, mode := range []struct {
		name string
		ref  bool
	}{{"opt", false}, {"ref", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{Topology: topo, Algorithm: core.Adaptive, Reference: mode.ref}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunContinuous(cfg, trace); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
