package verify

import "fmt"

// ReferenceEquivalence proves the scheduler's fast paths observationally
// equivalent to their reference implementations: it runs spec's trace over
// the full matrix twice — once on optimized states (per-switch free
// counters, maintained comm shares, compiled leaf-pair kernels) and once on
// reference states (full-subtree recounts, uncached Eq. 5/6 loops, tentative
// allocation) — and requires every per-job result to be bit-identical.
//
// The mode belongs to each run's own cluster.State, so both halves share one
// worker pool of the given size and run concurrently, with each other and
// with anything else in the process.
func ReferenceEquivalence(spec TraceSpec, parallelism int) error {
	configs := ConfigsFor(spec)
	results, err := runMatrixResults(spec, configs, parallelism, true)
	if err != nil {
		return err
	}
	for i := range configs {
		a, b := results[2*i], results[2*i+1]
		if a.Kernel == b.Kernel {
			return &Failure{Spec: spec, Config: &configs[i], Err: fmt.Errorf(
				"both runs report the %q kernel path: the comparison is vacuous", a.Kernel)}
		}
		if len(a.Jobs) != len(b.Jobs) {
			return &Failure{Spec: spec, Config: &configs[i], Err: fmt.Errorf(
				"reference run scheduled %d jobs, optimized %d", len(b.Jobs), len(a.Jobs))}
		}
		for k := range a.Jobs {
			if a.Jobs[k] != b.Jobs[k] {
				return &Failure{Spec: spec, Config: &configs[i], Err: fmt.Errorf(
					"optimized and reference schedules diverge: job %d %+v vs %+v",
					a.Jobs[k].ID, a.Jobs[k], b.Jobs[k])}
			}
		}
		if a.Summary != b.Summary {
			return &Failure{Spec: spec, Config: &configs[i], Err: fmt.Errorf(
				"optimized and reference summaries diverge: %+v vs %+v", a.Summary, b.Summary)}
		}
	}
	return nil
}
