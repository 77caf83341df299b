package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/topology"
	"repro/internal/workload"
)

// IndividualConfig parameterises individual runs (§5.4, §6.3): the cluster
// is first partially occupied, then each selected job is evaluated one at a
// time from that identical starting state, so every algorithm places every
// job against the same busy/free distribution.
type IndividualConfig struct {
	Topology *topology.Topology
	// OccupiedFraction of the machine's nodes is filled before evaluation
	// (default 0.4 when zero).
	OccupiedFraction float64
	// CommFraction of the filler jobs is communication-intensive (default
	// 0.5 when zero), creating the contention landscape the algorithms
	// react to.
	CommFraction float64
	// Seed drives the filler placement.
	Seed int64
	// CostMode selects the cost function (zero = paper's Eq. 6).
	CostMode costmodel.Mode
}

// IndividualResult is the outcome of placing one job from the common
// cluster state under each algorithm.
type IndividualResult struct {
	JobIndex int
	// Exec maps algorithm -> modified execution time (Eq. 7).
	Exec map[core.Algorithm]float64
	// Cost maps algorithm -> communication cost (Eq. 6) of the placement.
	Cost map[core.Algorithm]float64
}

// PrepareOccupiedState builds the partially occupied cluster the paper uses
// as the common starting point. Filler jobs of power-of-two sizes are
// placed with the default algorithm until the occupancy target is reached.
func PrepareOccupiedState(cfg IndividualConfig) (*cluster.State, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("sim: nil topology")
	}
	occ := cfg.OccupiedFraction
	if occ == 0 {
		occ = 0.4
	}
	if occ < 0 || occ >= 1 {
		return nil, fmt.Errorf("sim: occupied fraction %v out of [0,1)", occ)
	}
	commFrac := cfg.CommFraction
	if commFrac == 0 {
		commFrac = 0.5
	}
	st := cluster.New(cfg.Topology)
	rng := rand.New(rand.NewSource(cfg.Seed))
	defSel := core.MustNew(core.Default)
	target := int(occ * float64(cfg.Topology.NumNodes()))
	fillerID := cluster.JobID(1_000_000_000)
	_, maxLeaf := cfg.Topology.NodesPerLeaf()
	for st.Topology().NumNodes()-st.FreeTotal() < target {
		deficit := target - (st.Topology().NumNodes() - st.FreeTotal())
		size := 1 << rng.Intn(8) // 1..128 node fillers
		if size > maxLeaf {
			size = maxLeaf
		}
		if size > deficit {
			size = deficit
		}
		if size < 1 {
			size = 1
		}
		class := cluster.ComputeIntensive
		if rng.Float64() < commFrac {
			class = cluster.CommIntensive
		}
		req := core.Request{Job: fillerID, Nodes: size, Class: class, Pattern: collective.RD}
		if _, err := core.SelectAndAllocate(defSel, st, req); err != nil {
			return nil, fmt.Errorf("sim: filling cluster: %w", err)
		}
		fillerID++
	}
	return st, nil
}

// RunIndividual evaluates each selected trace job from the identical
// partially occupied state under every algorithm. The state is restored
// between placements ("the next job was submitted after the completion of
// the previous one"), so the comparison is exact.
func RunIndividual(cfg IndividualConfig, trace workload.Trace, jobIdx []int,
	algs []core.Algorithm) ([]IndividualResult, error) {
	st, err := PrepareOccupiedState(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]IndividualResult, 0, len(jobIdx))
	sc := new(core.Scratch)
	for _, idx := range jobIdx {
		if idx < 0 || idx >= len(trace.Jobs) {
			return nil, fmt.Errorf("sim: job index %d out of range", idx)
		}
		j := trace.Jobs[idx]
		if j.Nodes > st.FreeTotal() {
			continue // cannot start from the common state; skip, as a real emulation would
		}
		res := IndividualResult{
			JobIndex: idx,
			Exec:     make(map[core.Algorithm]float64, len(algs)),
			Cost:     make(map[core.Algorithm]float64, len(algs)),
		}
		for _, alg := range algs {
			sel, err := core.New(alg)
			if err != nil {
				return nil, err
			}
			pl, err := PlaceJob(sc, st, sel, ReferenceSelector(alg), j, cfg.CostMode, false)
			if err != nil {
				return nil, err
			}
			res.Exec[alg] = pl.Exec
			res.Cost[alg] = pl.Cost
		}
		out = append(out, res)
	}
	return out, nil
}
