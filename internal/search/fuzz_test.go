package search

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
	"repro/internal/topology"
)

// FuzzAnnealMoves asserts Improve's contract on fuzzer-chosen states: the
// returned list is distinct free nodes of the seed's length, Stats.BestCost
// is costmodel.CandidateCostMode of that list bit for bit and never above
// SeedCost, the whole budget is spent, and a second call returns the same
// list.
//
// The input bytes encode, in order: topology shape, background load,
// candidate width, pattern (and PRNG seed), the budget, and then one
// swap/shift per remaining byte pair applied to the seed placement before
// the search (kind + operands derived by modulus, so every byte string is
// a valid program).
func FuzzAnnealMoves(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint8(3), uint8(12), uint8(0), uint16(64), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint8(4), uint8(6), uint8(1), uint8(9), uint8(1), uint16(16), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint8(2), uint8(3), uint8(2), uint8(5), uint8(3), uint16(1), []byte{255, 0, 128})
	f.Fuzz(func(t *testing.T, perLeaf, fan0, fan1, width, patByte uint8, budget uint16, moves []byte) {
		npl := 1 + int(perLeaf)%8
		f0 := 2 + int(fan0)%6
		f1 := 1 + int(fan1)%4
		topo, err := topology.Generate(topology.Spec{NodesPerLeaf: npl, Fanouts: []int{f0, f1}})
		if err != nil {
			t.Skip()
		}
		st := cluster.New(topo)
		// Background load: every third leaf gets a resident compute node,
		// every third (offset) a resident comm node, as capacity allows.
		var compute, comm []int
		for l := 0; l < topo.NumLeaves(); l++ {
			ids := topo.LeafNodes(l)
			if l%3 == 0 {
				compute = append(compute, ids[0])
			} else if l%3 == 1 && len(ids) > 1 {
				comm = append(comm, ids[1])
			}
		}
		if len(compute) > 0 {
			if err := st.Allocate(800001, cluster.ComputeIntensive, compute); err != nil {
				t.Fatal(err)
			}
		}
		if len(comm) > 0 {
			if err := st.Allocate(800002, cluster.CommIntensive, comm); err != nil {
				t.Fatal(err)
			}
		}
		var free []int
		for id := 0; id < topo.NumNodes(); id++ {
			if st.NodeFree(id) {
				free = append(free, id)
			}
		}
		ranks := 2 + int(width)%15
		if len(free) < ranks+1 {
			t.Skip()
		}
		stride := len(free) / ranks
		cand := make([]int, 0, ranks)
		for i := 0; len(cand) < ranks; i += stride {
			cand = append(cand, free[i%len(free)])
		}
		patterns := []collective.Pattern{collective.RD, collective.RHVD, collective.Binomial, collective.Ring}
		pat := patterns[int(patByte)%len(patterns)]
		job := cluster.JobID(7000)

		// The fuzzer's moves scramble the seed placement: a swap exchanges
		// two ranks, a shift exchanges a rank with a free node outside.
		inCand := make(map[int]bool, ranks)
		for _, id := range cand {
			inCand[id] = true
		}
		outside := free[:0:0]
		for _, id := range free {
			if !inCand[id] {
				outside = append(outside, id)
			}
		}
		for i := 0; i+1 < len(moves); i += 2 {
			a, b := int(moves[i]), int(moves[i+1])
			r := a / 2 % ranks
			if a%2 == 0 || len(outside) == 0 {
				cand[r], cand[b%ranks] = cand[b%ranks], cand[r]
			} else {
				fi := b % len(outside)
				cand[r], outside[fi] = outside[fi], cand[r]
			}
		}

		seedCost, err := costmodel.CandidateCostMode(st, job, cluster.CommIntensive, cand, pat, costmodel.ModeEffectiveHops)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Budget: 1 + int(budget%512), Seed: uint64(patByte) + 1}
		got, stats, err := Improve(nil, st, job, cluster.CommIntensive, cand, pat, cfg)
		if err != nil {
			t.Fatalf("Improve: %v", err)
		}
		if len(got) != len(cand) {
			t.Fatalf("Improve returned %d nodes for a seed of %d", len(got), len(cand))
		}
		// CandidateCostMode validates the list as Allocate would: distinct,
		// in-range, free nodes.
		bestCost, err := costmodel.CandidateCostMode(st, job, cluster.CommIntensive, got, pat, costmodel.ModeEffectiveHops)
		if err != nil {
			t.Fatalf("Improve returned an invalid placement: %v", err)
		}
		if stats.SeedCost != seedCost {
			t.Fatalf("Stats.SeedCost %v != CandidateCostMode of the seed %v", stats.SeedCost, seedCost)
		}
		if stats.BestCost != bestCost {
			t.Fatalf("Stats.BestCost %v != CandidateCostMode of the returned list %v", stats.BestCost, bestCost)
		}
		if bestCost > seedCost {
			t.Fatalf("Improve returned %v, worse than seed %v", bestCost, seedCost)
		}
		if stats.Evaluated != cfg.Budget {
			t.Fatalf("evaluated %d moves on a budget of %d", stats.Evaluated, cfg.Budget)
		}
		again, stats2, err := Improve(nil, st, job, cluster.CommIntensive, cand, pat, cfg)
		if err != nil {
			t.Fatalf("second Improve: %v", err)
		}
		if stats2 != stats || !slices.Equal(again, got) {
			t.Fatalf("second call differs: %v %+v, first %v %+v", again, stats2, got, stats)
		}
	})
}
