package costmodel

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// One-pass pricing.
//
// Eq. 6 evaluates, per schedule step, the maximum of Eq. 5's
// Hops(i,j) = d(i,j)·(1+C(i,j)) over the step's rank pairs. For i ≠ j both
// factors depend on the nodes only through their leaf switches, and a max
// over a multiset is the max over its support, so a step's max is the max
// over the distinct leaf pairs its node pairs map onto (see DESIGN.md §7).
// Pricing walks the schedule's blocks over the placement's rank→leaf runs
// once: a stretch of pairs that stays inside one run on both sides is one
// leaf pair, whose Hops is computed the first time the pricing meets it and
// folded into the step's running max. Steps are summed in order, so the
// total is the reference loop's (costRef) bit for bit.

// Scratch is the working set of pricing and of candidate validation: the
// cluster.Scratch a wrapped list is scanned with, the touched leaves with
// their Eq. 5 inputs, and the epoch-stamped arrays that replace per-pricing
// maps. Touched leaves get compact positions in first-run order and the
// pair values are indexed by position pair, so they are O(touched²)
// whatever the machine size. Arrays grow on demand and persist in the
// Scratch, so a warm one prices with no allocation; freshly grown arrays
// are zeroed, which the monotone epoch reads as stale. Whoever owns a
// pricing loop owns one; the zero value is ready, and a Scratch serves one
// goroutine at a time.
type Scratch struct {
	scan      cluster.Scratch
	leaves    []int32   // position -> leaf
	comm      []int     // position -> L_comm, plus the candidate's nodes there under the overlay
	share     []float64 // position -> that count over L_nodes
	leafPos   []int32   // leaf -> position, valid per epoch
	leafEpoch []uint32
	runPos    []int32   // run -> position of its leaf
	pairVal   []float64 // lo·touched + hi -> the position pair's Hops or distance, valid per epoch
	pairEpoch []uint32
	epoch     uint32
}

// begin opens a pricing of runs against lay: it numbers the touched leaves
// in first-run order and, unless only distances are read, loads each one's
// comm count and share. The count is the live counter or, under the
// overlay, the counter plus the candidate's nodes on the leaf; the share is
// that count divided as State.CommShare divides, so pricing is bit-identical
// to the reference loop, overlay pricing to it after a real Allocate.
func (sc *Scratch) begin(st *cluster.State, lay *topology.Layout, runs []uint64, overlay, dist bool) {
	if len(sc.leafPos) < lay.L {
		sc.leafPos = make([]int32, lay.L)
		sc.leafEpoch = make([]uint32, lay.L)
	}
	if cap(sc.runPos) < len(runs) {
		sc.runPos = make([]int32, len(runs))
		sc.leaves, sc.comm = make([]int32, 0, len(runs)), make([]int, 0, len(runs))
	}
	sc.runPos = sc.runPos[:len(runs)]
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide
		clear(sc.leafEpoch)
		clear(sc.pairEpoch)
		sc.epoch = 1
	}
	leaves, comm := sc.leaves[:0], sc.comm[:0]
	for i, run := range runs[:len(runs)-1] {
		l := int32(run >> 32)
		if sc.leafEpoch[l] != sc.epoch {
			sc.leafEpoch[l] = sc.epoch
			sc.leafPos[l] = int32(len(leaves))
			leaves = append(leaves, l)
			comm = append(comm, 0)
		}
		sc.runPos[i] = sc.leafPos[l]
		comm[sc.leafPos[l]] += int(uint32(runs[i+1]) - uint32(run))
	}
	sc.leaves, sc.comm = leaves, comm
	t := len(leaves)
	if len(sc.pairVal) < t*t {
		sc.pairVal = make([]float64, t*t)
		sc.pairEpoch = make([]uint32, t*t)
	}
	if dist {
		return
	}
	if cap(sc.share) < t {
		sc.share = make([]float64, t)
	}
	sc.share = sc.share[:t]
	for i, l := range leaves {
		if overlay {
			comm[i] += st.LeafComm(int(l))
		} else {
			comm[i] = st.LeafComm(int(l))
		}
		sc.share[i] = float64(comm[i]) / lay.LeafSize[l]
	}
}

// hops is Eq. 5 between the touched leaves at positions i and j, mirroring
// Hops/Contention expression for expression (same conversions, same
// association order; which leaf comes first does not matter, floating-point
// addition being commutative), so pricing and the reference loop are
// bit-identical.
//
//caws:noalloc
func (sc *Scratch) hops(lay *topology.Layout, i, j int32) float64 {
	li, lj := sc.leaves[i], sc.leaves[j]
	d := lay.Dist(li, lj)
	if i == j {
		return d * (1 + sc.share[i])
	}
	shared := 0.5 * float64(sc.comm[i]+sc.comm[j]) / lay.PairSize(li, lj)
	return d * (1 + (sc.share[i] + sc.share[j] + shared))
}

// runCursor is one side's place in the run sequence: run i holds the ranks
// [lo, end) on the leaf at position pos.
type runCursor struct {
	i, lo, end int
	pos        int32
}

// next moves the cursor to the following run.
func (c *runCursor) next(runs []uint64, runPos []int32) {
	i := c.i + 1
	*c = runCursor{i, c.end, int(uint32(runs[i+1])), runPos[i]}
}

// seek moves the cursor to the run holding rank x, which lies outside its
// current one. Ahead, the search gallops (the next run, then twice as far
// each time) before it bisects, so a hop costs at most 2·log₂ of its
// length; behind, it bisects.
func (c *runCursor) seek(runs []uint64, runPos []int32, x int) {
	lo, hi := 0, c.i // the run is in [lo, hi): first rank of lo ≤ x < first rank of hi
	if x >= c.end {
		lo, hi = c.i+1, len(runs)-1
		for step := 1; lo+step < hi; step *= 2 {
			if int(uint32(runs[lo+step])) > x {
				hi = lo + step
				break
			}
			lo += step
		}
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if int(uint32(runs[mid])) <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	*c = runCursor{lo, int(uint32(runs[lo])), int(uint32(runs[lo+1])), runPos[lo]}
}

// walker is the state of one pricing's pass: the runs it walks, a run
// cursor per side of the pairs, and the running max of the current step.
type walker struct {
	sc     *Scratch
	lay    *topology.Layout
	runs   []uint64
	n      int  // ranks
	dist   bool // price d(i,j) alone: the distance-only ablation
	ca, cb runCursor
	max    float64
}

// price is Eq. 6 over the placement whose run sequence
// (cluster.Placement.Runs) is runs, for a schedule in block form (blocksFor).
// mode picks effective hops, hop-bytes (each step weighted by its MsgSize)
// or distance alone; overlay adds the runs' nodes to the comm counters.
//
//caws:noalloc
func (sc *Scratch) price(st *cluster.State, lay *topology.Layout, runs []uint64,
	blocks []collective.BlockStep, mode Mode, overlay bool) (float64, error) {
	w := walker{sc: sc, lay: lay, runs: runs, n: int(runs[len(runs)-1]), dist: mode == ModeDistanceOnly}
	sc.begin(st, lay, runs, overlay, w.dist)
	w.ca = runCursor{0, 0, int(uint32(runs[1])), sc.runPos[0]}
	w.cb = w.ca
	total, prevMax := 0.0, 0.0
	for s := range blocks {
		bs := &blocks[s]
		if !bs.Repeat {
			// A pair-less step contributes zero and leaves the max a repeat
			// step re-charges untouched, as in the reference loop.
			if len(bs.Blocks) == 0 {
				continue
			}
			w.max = 0
			for i := range bs.Blocks {
				if err := w.block(s, &bs.Blocks[i]); err != nil {
					return 0, err
				}
			}
			prevMax = w.max
		}
		if mode == ModeHopBytes {
			total += prevMax * bs.MsgSize
		} else {
			total += prevMax
		}
	}
	return total, nil
}

// ceilDiv is ⌈x/y⌉ for x ≥ 0 and y ≥ 1: the number of ranks
// x₀, x₀+y, x₀+2y, … among the next x.
func ceilDiv(x, y int) int {
	if y == 1 {
		return x
	}
	return (x + y - 1) / y
}

// block folds one block's pairs of step sIdx into the step's max by walking
// run breakpoints. Where a repetition's whole span lies inside one run on
// both sides, so do the next ones until either run ends, and all of them
// are one leaf pair; otherwise the repetition is cut into pieces that stay
// inside one run on both sides, each one leaf pair. A leaf pair's value is
// computed once per pricing, the first time a piece maps onto it.
//
//caws:noalloc
func (w *walker) block(sIdx int, k *collective.Block) error {
	n := w.n
	spanA, spanB := k.SA*(k.N-1), k.SB*(k.N-1)
	if last := k.Outer * (k.Reps - 1); k.A < 0 || k.B < 0 || k.A+spanA+last >= n || k.B+spanB+last >= n {
		return fmt.Errorf("costmodel: step %d block from pair (%d,%d) out of range for %d ranks", sIdx, k.A, k.B, n)
	}
	if k.A == k.B && k.SA == k.SB {
		return nil // self pairs: Hops(i,i) = 0, never the max
	}
	sc, runs := w.sc, w.runs
	t := len(sc.leaves)
	ca, cb := w.ca, w.cb
	for u := 0; u < k.Reps; {
		a, b := k.A+k.Outer*u, k.B+k.Outer*u
		if a < ca.lo || a >= ca.end {
			// Start from the B cursor if it is the nearer one behind a: in
			// a butterfly this side resumes where the other one stopped.
			if cb.lo <= a && cb.lo > ca.lo {
				ca = cb
			}
			if a >= ca.end {
				ca.next(runs, sc.runPos)
			}
			if a < ca.lo || a >= ca.end {
				ca.seek(runs, sc.runPos, a)
			}
		}
		if b < cb.lo || b >= cb.end {
			cb.seek(runs, sc.runPos, b)
		}
		// m is the number of node pairs the next piece stands for: all of
		// the repetitions that fit, or as much of this one as stays inside
		// both runs.
		var m int
		if roomA, roomB := ca.end-1-a-spanA, cb.end-1-b-spanB; roomA >= 0 && roomB >= 0 {
			reps := 1
			if k.Reps-u > 1 && roomA >= k.Outer && roomB >= k.Outer {
				reps = min(k.Reps-u, min(roomA, roomB)/k.Outer+1) // one division: ⌊·/Outer⌋ is monotone
			}
			m, u = reps*k.N, u+reps
		} else {
			m, u = min(ceilDiv(ca.end-a, k.SA), ceilDiv(cb.end-b, k.SB)), u+1
		}
		for left := k.N; ; {
			lo, hi := ca.pos, cb.pos
			if lo > hi {
				lo, hi = hi, lo
			}
			p := int(lo)*t + int(hi)
			if sc.pairEpoch[p] != sc.epoch {
				sc.pairEpoch[p] = sc.epoch
				if w.dist {
					sc.pairVal[p] = w.lay.Dist(sc.leaves[lo], sc.leaves[hi])
				} else {
					sc.pairVal[p] = sc.hops(w.lay, lo, hi)
				}
			}
			if v := sc.pairVal[p]; v > w.max {
				w.max = v
			}
			if left -= m; left <= 0 {
				break
			}
			// The piece ended with a run, on one side at least.
			a, b = a+m*k.SA, b+m*k.SB
			if a >= ca.end {
				if ca.next(runs, sc.runPos); a >= ca.end {
					ca.seek(runs, sc.runPos, a)
				}
			}
			if b >= cb.end {
				if cb.next(runs, sc.runPos); b >= cb.end {
					cb.seek(runs, sc.runPos, b)
				}
			}
			m = min(ceilDiv(ca.end-a, k.SA), ceilDiv(cb.end-b, k.SB), left)
		}
	}
	w.ca, w.cb = ca, cb
	return nil
}
