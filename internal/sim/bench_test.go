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

// BenchmarkValidateResultConfig audits a 1000-job adaptive Theta result:
// the per-job checks, the capacity sweep and the one-pass backfill
// legality audit every validated sweep cell runs.
func BenchmarkValidateResultConfig(b *testing.B) {
	topo := topology.Theta()
	trace := workload.Theta.On(topo).Synthesize(1000, 1).
		MustTag(0.3, collective.SinglePattern(collective.RD, 0.5), 2)
	cfg := Config{Topology: topo, Algorithm: core.Adaptive}
	res, err := RunContinuous(cfg, trace)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ValidateResultConfig(res, trace, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
