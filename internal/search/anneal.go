// Package search implements a deterministic, seeded simulated-annealing
// refinement pass over candidate node allocations (ROADMAP "search-based
// allocator family"; cf. the neural-SA line of work, arXiv 2302.03517).
// It starts from a seed placement, in practice the adaptive selector's
// pick, and explores swap/shift moves over the candidate node set,
// pricing each visited list through costmodel, the only evaluator of
// Eq. 5/6 in the tree.
//
// The package sits below internal/core (which wires it into the
// Algorithm enum) and above internal/cluster / internal/costmodel; it
// threads its PRNG explicitly, so a given (state, seed placement, Config)
// triple always returns the same nodes regardless of caller concurrency.
package search

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
)

// Budget and seed defaults: every layer that plumbs a budget or seed down
// to a Config (core.Options, sim.Config, verify.RunConfig) treats zero as
// "use the default".
const (
	// DefaultBudget is the evaluated-candidates budget when a Config
	// leaves Budget zero, and what -alg anneal runs at everywhere: the
	// EXPERIMENTS.md budget sweep shows nothing gained beyond it.
	DefaultBudget = 256
	// DefaultSeed is the PRNG seed when a Config leaves Seed zero.
	DefaultSeed = 1
)

// Config parameterises the annealing search.
type Config struct {
	// Budget is the number of evaluated candidate moves. Zero means
	// DefaultBudget; a negative budget disables the search entirely (the
	// seed placement passes through untouched — the degenerate selector
	// that must be bit-identical to adaptive).
	Budget int
	// Seed is the base PRNG seed. It is mixed with the job ID so every
	// job gets an independent deterministic stream; zero means
	// DefaultSeed.
	Seed uint64
}

// withDefaults resolves the zero-value conventions.
func (c Config) withDefaults() Config {
	if c.Budget == 0 {
		c.Budget = DefaultBudget
	}
	if c.Budget < 0 {
		c.Budget = 0
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// Stats reports what one Improve call did.
type Stats struct {
	// SeedCost and BestCost are Eq. 6 for the seed placement and the
	// returned placement; BestCost <= SeedCost always (the search keeps
	// the best-so-far, so it can never return something worse than its
	// seed). Both are zero when the search was skipped (budget <= 0,
	// single-node job, or compute-intensive class).
	SeedCost float64
	BestCost float64
	// Evaluated counts priced moves (the budget actually spent);
	// Accepted counts the moves the Metropolis rule kept.
	Evaluated int
	Accepted  int
}

// prng is a splitmix64 generator — the explicit, seedable stream the
// determinism lint demands in place of the global math/rand source.
type prng struct{ state uint64 }

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is irrelevant here —
// the stream only drives move proposals — and keeping the reduction
// trivial keeps replays obvious.
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// unit returns a float in (0, 1) — strictly positive so math.Log is
// always finite in the acceptance rule.
func (p *prng) unit() float64 { return (float64(p.next()>>11) + 0.5) / (1 << 53) }

// jobSeed mixes the base seed with the job ID so concurrent sweeps and
// repeated runs see identical per-job streams whatever order jobs are
// priced in.
func jobSeed(base uint64, job cluster.JobID) uint64 {
	z := base ^ (uint64(job)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	return z ^ (z >> 31)
}

// Temperature schedule: the initial temperature is a fraction of the seed
// cost (deltas scale with the cost magnitude), decayed geometrically so
// the final temperature is endTempFrac of the initial one after exactly
// Budget moves — a fixed, seed-independent schedule shape.
const (
	startTempFrac = 0.05
	endTempFrac   = 1e-3
)

// Improve refines a seed placement for (job, class, pattern) by seeded
// simulated annealing over swap and shift moves. The candidate is a plain
// rank-ordered node list: a move exchanges two slots in place, the list
// is priced from scratch by costmodel.Scratch.CandidateCostMode (Eq. 6), and a
// rejected move is undone by the same exchange. It never returns a
// placement costlier than the seed: the best-so-far assignment is
// tracked separately from the annealing walk. The returned list is
// always a fresh slice in rank order. Every pricing works in sc, which a
// nil sc makes fresh for the call. On an optimized state st is only
// read; on a reference state each pricing tentatively allocates and
// rolls back (see costmodel.Scratch.PlacementCostMode).
func Improve(sc *costmodel.Scratch, st *cluster.State, job cluster.JobID, class cluster.Class,
	seed []int, p collective.Pattern, cfg Config) ([]int, Stats, error) {
	cfg = cfg.withDefaults()
	out := append([]int(nil), seed...)
	if cfg.Budget <= 0 || len(seed) < 2 || class != cluster.CommIntensive {
		return out, Stats{}, nil
	}
	if sc == nil {
		sc = new(costmodel.Scratch)
	}
	cand := append([]int(nil), seed...)
	price := func() (float64, error) {
		return sc.CandidateCostMode(st, job, class, cand, p, costmodel.ModeEffectiveHops)
	}
	// Pricing the seed also validates it: distinct, in-range, free nodes
	// and a job that is not already running.
	cur, err := price()
	if err != nil {
		return nil, Stats{}, err
	}
	rng := prng{state: jobSeed(cfg.Seed, job)}
	rng.next() // warm the mixed state

	// Free nodes outside the candidate, in ascending id order. A shift
	// exchanges a rank's node with one of these, so the list stays an
	// exact complement of the candidate set.
	inCand := make([]bool, st.Topology().NumNodes())
	for _, id := range cand {
		inCand[id] = true
	}
	var free []int
	for id, in := range inCand {
		if !in && st.NodeFree(id) {
			free = append(free, id)
		}
	}

	stats := Stats{SeedCost: cur}
	best := cur
	temp := startTempFrac * cur
	cool := math.Exp(math.Log(endTempFrac) / float64(cfg.Budget))

	for i := 0; i < cfg.Budget; i++ {
		// Shifts and swaps alternate on a fair coin; with no free nodes
		// the shift arm is unavailable and every move is a swap. Either
		// way a move exchanges a rank's slot with a second slot, of the
		// free list or of the candidate, and so does its undo.
		other := cand
		if len(free) > 0 && rng.next()&1 == 0 {
			other = free
		}
		a := &cand[rng.intn(len(cand))]
		b := &other[rng.intn(len(other))]
		*a, *b = *b, *a
		nc, err := price()
		if err != nil {
			return nil, Stats{}, err
		}
		stats.Evaluated++
		// Metropolis: the uniform is drawn only for an uphill move at a
		// positive temperature.
		if d := nc - cur; d <= 0 || temp > 0 && -temp*math.Log(rng.unit()) > d {
			cur = nc
			stats.Accepted++
			if cur < best {
				best = cur
				copy(out, cand)
			}
		} else {
			*a, *b = *b, *a
		}
		temp *= cool
	}
	stats.BestCost = best
	return out, stats, nil
}
