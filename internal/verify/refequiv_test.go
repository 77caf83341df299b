package verify

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestReferenceEquivalence proves the optimized fast paths (per-switch
// free counters, maintained comm shares, one-pass pricing) produce
// bit-identical schedules to the reference implementations over the full
// configuration matrix for several seeds.
func TestReferenceEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		spec := DefaultSpec(seed)
		spec.Jobs = 25
		if err := ReferenceEquivalence(spec, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReferenceAndOptimizedRunConcurrently is what process-global mode
// toggles made impossible: the same trace through sim.RunContinuous on an
// optimized and on a reference state, on two goroutines at once (run it
// under -race), each result bit-identical to the other and to the same
// two runs made one after the other.
func TestReferenceAndOptimizedRunConcurrently(t *testing.T) {
	spec := DefaultSpec(4)
	spec.Jobs, spec.CommFraction = 30, 0.8
	topo, trace, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func(reference bool) *sim.Result {
		res, err := sim.RunContinuous(sim.Config{Topology: topo, Algorithm: core.Adaptive, Reference: reference}, trace)
		if err != nil {
			t.Error(err)
			return &sim.Result{}
		}
		return res
	}
	sequential := [2]*sim.Result{run(false), run(true)}
	var concurrent [2]*sim.Result
	var wg sync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = run(i == 1)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := sequential[0]
	if want.Kernel != "aggregated" || sequential[1].Kernel != "reference" || concurrent[1].Kernel != "reference" {
		t.Fatalf("kernel paths: sequential %q/%q, concurrent %q/%q", want.Kernel, sequential[1].Kernel, concurrent[0].Kernel, concurrent[1].Kernel)
	}
	if want.Summary.AvgCommCost == 0 {
		t.Fatal("the trace priced nothing; the comparison is vacuous")
	}
	for name, got := range map[string]*sim.Result{
		"sequential reference": sequential[1], "concurrent optimized": concurrent[0], "concurrent reference": concurrent[1],
	} {
		if !slices.Equal(got.Jobs, want.Jobs) || got.Summary != want.Summary {
			t.Errorf("%s run differs from the sequential optimized run:\n%+v\nvs\n%+v", name, got.Summary, want.Summary)
		}
	}
}

// TestRunCellsDeterministicFirstFailure pins the worker pool's failure
// semantics: whatever the interleaving, the reported error is the
// lowest-indexed failing cell, and every cell runs exactly once.
func TestRunCellsDeterministicFirstFailure(t *testing.T) {
	for _, parallelism := range []int{1, 4, 16} {
		ran := make([]int, 40)
		err := runCells(len(ran), parallelism, func(i int) error {
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
	if err := runCells(5, 8, func(int) error { return nil }); err != nil {
		t.Errorf("clean pool returned %v", err)
	}
}

// TestDifferentialParallelMatchesSequential runs one spec both ways; the
// outcome (including any failure) must be identical.
func TestDifferentialParallelMatchesSequential(t *testing.T) {
	spec := DefaultSpec(11)
	spec.Jobs = 15
	seqErr := DifferentialParallel(spec, 1)
	parErr := DifferentialParallel(spec, 8)
	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("sequential err %v, parallel err %v", seqErr, parErr)
	}
	if seqErr != nil {
		var a, b *Failure
		if !errors.As(seqErr, &a) || !errors.As(parErr, &b) || a.Error() != b.Error() {
			t.Fatalf("failures differ:\n%v\n%v", seqErr, parErr)
		}
	}
}
