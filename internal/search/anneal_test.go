package search

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
)

// TestImproveNeverWorseThanSeed is the package's core invariant: whatever
// the budget or seed, the returned placement never prices above the seed
// placement.
func TestImproveNeverWorseThanSeed(t *testing.T) {
	st := testState(t, 8, 4, 3)
	for _, budget := range []int{1, 16, 64, 256} {
		for _, seed := range []uint64{1, 2, 99} {
			cand := spreadCandidate(t, st, 16)
			job := cluster.JobID(6000)
			seedCost, err := costmodel.CandidateCostMode(st, job, cluster.CommIntensive, cand, collective.RD, costmodel.ModeEffectiveHops)
			if err != nil {
				t.Fatal(err)
			}
			nodes, stats, err := Improve(nil, st, job, cluster.CommIntensive, cand, collective.RD,
				Config{Budget: budget, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			got, err := costmodel.CandidateCostMode(st, job, cluster.CommIntensive, nodes, collective.RD, costmodel.ModeEffectiveHops)
			if err != nil {
				t.Fatalf("budget %d seed %d: returned placement invalid: %v", budget, seed, err)
			}
			if got > seedCost {
				t.Errorf("budget %d seed %d: improved cost %v > seed cost %v", budget, seed, got, seedCost)
			}
			if stats.SeedCost != seedCost {
				t.Errorf("budget %d seed %d: stats.SeedCost %v != CandidateCostMode %v", budget, seed, stats.SeedCost, seedCost)
			}
			if stats.BestCost != got {
				t.Errorf("budget %d seed %d: stats.BestCost %v != re-priced cost %v", budget, seed, stats.BestCost, got)
			}
			if stats.Evaluated != budget {
				t.Errorf("budget %d: evaluated %d moves", budget, stats.Evaluated)
			}
		}
	}
}

// TestImproveDeterministic: same inputs, same seed => byte-identical
// node lists, run to run.
func TestImproveDeterministic(t *testing.T) {
	st := testState(t, 8, 4, 3)
	cand := spreadCandidate(t, st, 16)
	job := cluster.JobID(6001)
	first, stats1, err := Improve(nil, st, job, cluster.CommIntensive, cand, collective.RHVD,
		Config{Budget: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, stats2, err := Improve(nil, st, job, cluster.CommIntensive, cand, collective.RHVD,
			Config{Budget: 128, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if stats1 != stats2 {
			t.Fatalf("run %d: stats %+v != %+v", run, stats2, stats1)
		}
		for r := range first {
			if first[r] != again[r] {
				t.Fatalf("run %d: rank %d node %d != %d", run, r, again[r], first[r])
			}
		}
	}
	// A different seed is allowed to (and here does) explore differently.
	other, _, err := Improve(nil, st, job, cluster.CommIntensive, cand, collective.RHVD,
		Config{Budget: 128, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	_ = other // different seeds need not differ, only determinism is pinned
}

// TestImprovePassthrough pins the skip conditions: negative budget,
// single-node jobs and compute-intensive jobs return the seed untouched
// (a fresh slice, zero stats).
func TestImprovePassthrough(t *testing.T) {
	st := testState(t, 8, 4)
	cand := spreadCandidate(t, st, 8)
	cases := []struct {
		name  string
		class cluster.Class
		nodes []int
		cfg   Config
	}{
		{"negative-budget", cluster.CommIntensive, cand, Config{Budget: -1}},
		{"compute-class", cluster.ComputeIntensive, cand, Config{Budget: 64}},
		{"single-node", cluster.CommIntensive, cand[:1], Config{Budget: 64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, stats, err := Improve(nil, st, 6002, tc.class, tc.nodes, collective.RD, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if (stats != Stats{}) {
				t.Errorf("stats %+v, want zero", stats)
			}
			if len(out) != len(tc.nodes) {
				t.Fatalf("returned %d nodes, want %d", len(out), len(tc.nodes))
			}
			for i := range out {
				if out[i] != tc.nodes[i] {
					t.Errorf("rank %d: %d != seed %d", i, out[i], tc.nodes[i])
				}
			}
			if len(out) > 0 && &out[0] == &tc.nodes[0] {
				t.Error("passthrough must return a fresh slice")
			}
		})
	}
}

// TestConfigDefaults pins the zero-value conventions every plumbing layer
// relies on.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Budget != DefaultBudget || c.Seed != DefaultSeed {
		t.Fatalf("zero config resolved to %+v", c)
	}
	c = Config{Budget: -5, Seed: 3}.withDefaults()
	if c.Budget != 0 || c.Seed != 3 {
		t.Fatalf("negative budget resolved to %+v", c)
	}
	c = Config{Budget: 64}.withDefaults()
	if c.Budget != 64 || c.Seed != DefaultSeed {
		t.Fatalf("explicit budget resolved to %+v", c)
	}
}

// TestImproveFindsImprovement sanity-checks the search is not a no-op: on
// a state with an obviously bad seed (one rank exiled to a distant leaf
// while better nodes sit free nearby), a modest budget finds a strictly
// cheaper placement.
func TestImproveFindsImprovement(t *testing.T) {
	st := testState(t, 8, 4, 3)
	free := freeNodes(st)
	// Seed: 7 nodes from the first leaves plus one from the far end.
	seed := append(append([]int(nil), free[:7]...), free[len(free)-1])
	job := cluster.JobID(6003)
	seedCost, err := costmodel.CandidateCostMode(st, job, cluster.CommIntensive, seed, collective.RD, costmodel.ModeEffectiveHops)
	if err != nil {
		t.Fatal(err)
	}
	nodes, stats, err := Improve(nil, st, job, cluster.CommIntensive, seed, collective.RD,
		Config{Budget: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := costmodel.CandidateCostMode(st, job, cluster.CommIntensive, nodes, collective.RD, costmodel.ModeEffectiveHops)
	if err != nil {
		t.Fatal(err)
	}
	if !(got < seedCost) {
		t.Fatalf("expected strict improvement on a bad seed: got %v, seed %v (stats %+v)",
			got, seedCost, stats)
	}
}

// TestImproveRejectsBadSeeds: the seed is validated exactly as
// costmodel.CandidateCostMode validates a candidate, before any move is tried.
func TestImproveRejectsBadSeeds(t *testing.T) {
	st := testState(t, 8, 4)
	free := freeNodes(st)
	busy := -1
	for id := 0; id < st.Topology().NumNodes() && busy < 0; id++ {
		if !st.NodeFree(id) {
			busy = id
		}
	}
	for _, tc := range []struct {
		name  string
		job   cluster.JobID
		nodes []int
	}{
		{"negative-job", -1, free[:2]},
		{"duplicate-node", 1, []int{free[0], free[0]}},
		{"running-job", 900001, free[:2]},
		{"out-of-range", 1, []int{free[0], st.Topology().NumNodes()}},
		{"negative-node", 1, []int{-3, free[0]}},
		{"busy-node", 1, []int{free[0], busy}},
	} {
		if _, _, err := Improve(nil, st, tc.job, cluster.CommIntensive, tc.nodes, collective.RD, Config{Budget: 8}); err == nil {
			t.Errorf("%s: Improve accepted the seed", tc.name)
		}
	}
}
