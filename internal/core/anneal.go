package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/search"
)

// Options carries selector tuning consumed by the algorithms that want
// it; the zero value always means "the algorithm's defaults", so every
// existing NewWith(a, Options{}) call site behaves exactly like New(a).
type Options struct {
	// AnnealBudget is the Anneal search budget in evaluated candidate
	// moves: 0 means search.DefaultBudget, a negative budget disables
	// the search (the adaptive seed passes through untouched — useful as
	// the budget-0 row of quality sweeps and as a bit-identity check
	// against Adaptive).
	AnnealBudget int
}

// annealSelector seeds from the adaptive selector and refines
// communication-intensive placements with the seeded annealing search.
// Compute-intensive requests pass through unchanged: adaptive
// deliberately keeps the costlier candidate for those, and "improving"
// them would fight that policy.
type annealSelector struct {
	cfg search.Config
}

func (s annealSelector) Name() string { return "anneal" }

func (s annealSelector) Select(st *cluster.State, req Request) ([]int, error) {
	return nodesOf(s.Place(st, req, new(Scratch)))
}

// Place prices the adaptive seed's candidates and every move of the search
// in sc.
func (s annealSelector) Place(st *cluster.State, req Request, sc *Scratch) (cluster.Placement, error) {
	seed, _, err := adaptiveSelector{}.Place(st, req, sc)
	if err != nil || req.Class != cluster.CommIntensive || seed.Len() < 2 {
		return seed, err
	}
	nodes, _, err := search.Improve(&sc.price, st, req.Job, req.Class, seed.Nodes(), req.Pattern, s.cfg)
	if err != nil {
		return cluster.Placement{}, fmt.Errorf("core: anneal: %w", err)
	}
	return cluster.NewPlacement(nodes), nil
}
