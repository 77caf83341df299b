package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
)

// TestAnnealNeverWorseThanAdaptive pins the selector-level invariant: for
// any request the anneal selector's placement prices at or below the
// adaptive seed it starts from.
func TestAnnealNeverWorseThanAdaptive(t *testing.T) {
	st := benchState(t)
	adaptive := MustNew(Adaptive)
	anneal := MustNew(Anneal)
	for _, nodes := range []int{8, 64, 200} {
		req := Request{Job: 42, Nodes: nodes, Class: cluster.CommIntensive, Pattern: collective.RD}
		seed, err := adaptive.Select(st, req)
		if err != nil {
			t.Fatal(err)
		}
		seedCost, err := costmodel.CandidateCostMode(st, req.Job, req.Class, seed, req.Pattern, costmodel.ModeEffectiveHops)
		if err != nil {
			t.Fatal(err)
		}
		got, err := anneal.Select(st, req)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := costmodel.CandidateCostMode(st, req.Job, req.Class, got, req.Pattern, costmodel.ModeEffectiveHops)
		if err != nil {
			t.Fatalf("%d nodes: anneal placement invalid: %v", nodes, err)
		}
		if cost > seedCost {
			t.Errorf("%d nodes: anneal cost %v > adaptive seed %v", nodes, cost, seedCost)
		}
	}
}

// TestAnnealZeroBudgetIsAdaptive: a negative budget disables the search,
// so the anneal selector must return the adaptive placement byte for
// byte — for both classes.
func TestAnnealZeroBudgetIsAdaptive(t *testing.T) {
	st := benchState(t)
	adaptive := MustNew(Adaptive)
	passthrough, err := NewWith(Anneal, Options{AnnealBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []cluster.Class{cluster.CommIntensive, cluster.ComputeIntensive} {
		req := Request{Job: 43, Nodes: 96, Class: class, Pattern: collective.RHVD}
		want, err := adaptive.Select(st, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := passthrough.Select(st, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d nodes != %d", class, len(got), len(want))
		}
		for r := range got {
			if got[r] != want[r] {
				t.Fatalf("%v: rank %d node %d != adaptive %d", class, r, got[r], want[r])
			}
		}
	}
}

// TestAnnealDeterministicSelect: repeated Selects on the same state with
// the same options are byte-identical.
func TestAnnealDeterministicSelect(t *testing.T) {
	st := benchState(t)
	sel, err := NewWith(Anneal, Options{AnnealBudget: 128})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Job: 44, Nodes: 64, Class: cluster.CommIntensive, Pattern: collective.RD}
	first, err := sel.Select(st, req)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := sel.Select(st, req)
		if err != nil {
			t.Fatal(err)
		}
		for r := range first {
			if first[r] != again[r] {
				t.Fatalf("run %d: rank %d node %d != %d", run, r, again[r], first[r])
			}
		}
	}
}

// TestAnnealEnumWiring pins the enum plumbing: name, parse aliases, and
// constructor coverage.
func TestAnnealEnumWiring(t *testing.T) {
	if Anneal.String() != "anneal" {
		t.Errorf("Anneal.String() = %q", Anneal.String())
	}
	for _, s := range []string{"anneal", "ANNEAL", "sa"} {
		a, err := ParseAlgorithm(s)
		if err != nil || a != Anneal {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", s, a, err)
		}
	}
	sel, err := New(Anneal)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Name() != "anneal" {
		t.Errorf("selector name %q", sel.Name())
	}
}
