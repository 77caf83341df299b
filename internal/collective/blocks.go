package collective

import "math/bits"

// Block is a periodic family of rank pairs: repetition u < Reps lists
// (A + SA·t + Outer·u, B + SB·t + Outer·u) for t < N, repetitions in
// increasing u. N, Reps, SA and SB are at least 1, Outer too when Reps > 1.
// A block with SA ≠ SB holds no pair of equal ranks; one with SA = SB holds
// only such pairs or none. A distance-d step of a power-of-two butterfly is
// one block (N = d, Outer = 2d); where a folded one pairs survivor 2i+1
// with unfolded rank i+d+r it is one block with strides (2, 1).
type Block struct {
	A, B   int
	SA, SB int
	N      int
	Outer  int
	Reps   int
}

// BlockStep is a Step whose pairs are listed by blocks, in order.
type BlockStep struct {
	Blocks  []Block
	MsgSize float64
	// Repeat marks a step that exchanges the previous non-empty step's
	// pairs again (every ring step after the first) and has no blocks of
	// its own; Expand gives it that step's Pairs slice itself, the identity
	// Compact and the reference cost loop recognise repeats by.
	Repeat bool
}

// Blocks returns Schedule(ranks) in block form, without listing pairs where
// the pattern has a closed form: one block per power-of-two step, at most
// four per step of a folded size. The other patterns' pair lists are
// compacted.
func (p Pattern) Blocks(ranks int) ([]BlockStep, error) {
	blocks, steps, err := p.generate(ranks)
	if steps != nil {
		blocks = Compact(steps)
	}
	return blocks, err
}

// Expand lists the pairs of a schedule in block form, the inverse of
// Compact. A pair-less step gets nil Pairs.
func Expand(blocks []BlockStep) []Step {
	if len(blocks) == 0 {
		return nil
	}
	steps := make([]Step, len(blocks))
	var prev []Pair
	for s, bs := range blocks {
		steps[s].MsgSize = bs.MsgSize
		if bs.Repeat {
			steps[s].Pairs = prev
			continue
		}
		n := 0
		for _, k := range bs.Blocks {
			n += k.N * k.Reps
		}
		if n == 0 {
			continue
		}
		pairs := make([]Pair, 0, n)
		for _, k := range bs.Blocks {
			for u := 0; u < k.Reps; u++ {
				a, b := k.A+k.Outer*u, k.B+k.Outer*u
				for t := 0; t < k.N; t++ {
					pairs = append(pairs, Pair{a, b})
					a, b = a+k.SA, b+k.SB
				}
			}
		}
		steps[s].Pairs, prev = pairs, pairs
	}
	return steps
}

// segmentAt returns the longest stretch of pairs starting at pairs[i] that
// one single-repetition Block lists: pairs[i+t] = (A + SA·t, B + SB·t) with
// both strides positive. A stretch with unequal strides stops before a pair
// of equal ranks and never starts on one.
func segmentAt(pairs []Pair, i int) Block {
	rest := pairs[i:]
	k := Block{A: rest[0].A, B: rest[0].B, SA: 1, SB: 1, N: 1, Reps: 1}
	if len(rest) < 2 {
		return k
	}
	sa, sb := rest[1].A-k.A, rest[1].B-k.B
	if sa <= 0 || sb <= 0 || sa != sb && k.A == k.B {
		return k
	}
	n := 1
	for n < len(rest) && rest[n].A-rest[n-1].A == sa && rest[n].B-rest[n-1].B == sb && (sa == sb || rest[n].A != rest[n].B) {
		n++
	}
	if n > 1 {
		k.SA, k.SB, k.N = sa, sb, n
	}
	return k
}

// Compact rewrites pair lists as blocks, whatever made them: each step is
// cut into segmentAt stretches, and a stretch that is the block before it
// shifted by one more positive stride, the same on both sides, becomes
// another repetition of that block. A step that shares its Pairs with the
// previous non-empty step becomes a Repeat.
func Compact(steps []Step) []BlockStep {
	out := make([]BlockStep, len(steps))
	var prev *Pair
	for s, st := range steps {
		out[s].MsgSize = st.MsgSize
		if len(st.Pairs) == 0 {
			continue
		}
		if prev == &st.Pairs[0] {
			out[s].Repeat = true
			continue
		}
		prev = &st.Pairs[0]
		var blocks []Block
		for i := 0; i < len(st.Pairs); {
			k := segmentAt(st.Pairs, i)
			i += k.N
			if n := len(blocks); n > 0 {
				last := &blocks[n-1]
				shift := k.A - last.A // a second repetition sets the stride; later ones must keep it
				if last.Reps > 1 {
					shift = last.Outer * last.Reps
				}
				if shift > 0 && k.A-last.A == shift && k.B-last.B == shift && k.SA == last.SA && k.SB == last.SB && k.N == last.N {
					last.Outer, last.Reps = shift/last.Reps, last.Reps+1
					continue
				}
			}
			blocks = append(blocks, k)
		}
		out[s].Blocks = blocks
	}
	return out
}

// appendButterfly appends blocks listing the pairs (a + sa·i, b + sb·i), in
// increasing i, for the i in [lo, hi) whose bit d (a power of two) is
// clear: the lower partners of a distance-d butterfly step. Those i come in
// stretches of d every 2d, so the list is at most a partial stretch, one
// block of whole stretches, and another partial stretch. Unequal strides
// need a range that holds one stretch at most.
func appendButterfly(dst []Block, lo, hi, d, a, sa, b, sb int) []Block {
	piece := func(n, reps int) {
		dst = append(dst, Block{A: a + sa*lo, B: b + sb*lo, SA: sa, SB: sb, N: n, Outer: sa * 2 * d, Reps: reps})
	}
	if o := lo % (2 * d); o != 0 && lo < hi {
		if o < d {
			piece(min(d-o, hi-lo), 1)
		}
		lo += 2*d - o
	}
	if reps := (hi - lo + d) / (2 * d); reps > 0 {
		piece(d, reps)
		lo += reps * 2 * d
	}
	if lo < hi {
		piece(hi-lo, 1)
	}
	return dst
}

// recursiveBlocks is the RD (vectorDoubling=false) or RHVD
// (vectorDoubling=true) schedule. With r = ranks − 2^q ranks folded away,
// algorithm rank i runs on real rank 2i+1 below r and on i+r from r on, so
// a distance-d step's pairs (i, i+d) fall, in increasing i, into three
// ranges: both partners folded (i+d < r), the lower one only (i < r ≤ i+d:
// at most d consecutive i, hence one stretch), and neither.
func recursiveBlocks(ranks int, vectorDoubling bool) []BlockStep {
	q := bits.Len(uint(ranks)) - 1
	pow2 := 1 << q
	r := ranks - pow2
	nSteps, nBlocks := q, q
	if r > 0 {
		nSteps, nBlocks = q+2, 4*q+2
	}
	steps := make([]BlockStep, 0, nSteps)
	all := make([]Block, 0, nBlocks)
	step := func(from int, msg float64) {
		steps = append(steps, BlockStep{Blocks: all[from:len(all):len(all)], MsgSize: msg})
	}
	fold := Block{A: 0, B: 1, SA: 2, SB: 2, N: r, Reps: 1} // each folded rank 2m with its survivor 2m+1
	if r > 0 {
		all = append(all, fold)
		step(0, 1)
	}
	for k := 0; k < q; k++ {
		d, msize := 1<<k, 1.0
		if vectorDoubling {
			// Distance halves (2^(q-1-k)) while the vector doubles (2^k).
			d, msize = 1<<(q-1-k), float64(int64(1)<<k)
		}
		from := len(all)
		all = appendButterfly(all, 0, r-d, d, 1, 2, 2*d+1, 2)
		all = appendButterfly(all, max(0, r-d), r, d, 1, 2, d+r, 1)
		all = appendButterfly(all, r, pow2, d, r, 1, d+r, 1)
		step(from, msize)
	}
	if r > 0 {
		all = append(all, fold)
		msize := 1.0
		if vectorDoubling {
			msize = float64(pow2) // the folded ranks receive the fully gathered vector
		}
		step(len(all)-1, msize)
	}
	return steps
}

// binomialBlocks is the binomial-tree broadcast schedule: at step k, every
// rank i < 2^k with a partner i + 2^k < ranks sends to it.
func binomialBlocks(ranks int) []BlockStep {
	n := bits.Len(uint(ranks - 1)) // ceil(log2 ranks)
	steps := make([]BlockStep, n)
	all := make([]Block, n)
	for k := range steps {
		offset := 1 << k
		all[k] = Block{A: 0, B: offset, SA: 1, SB: 1, N: min(offset, ranks-offset), Reps: 1}
		steps[k] = BlockStep{Blocks: all[k : k+1 : k+1], MsgSize: 1}
	}
	return steps
}

// ringBlocks is the ring allgather schedule: ranks-1 steps, each the full
// neighbour exchange (i, i+1) closed by (0, ranks-1).
func ringBlocks(ranks int) []BlockStep {
	ring := []Block{
		{A: 0, B: 1, SA: 1, SB: 1, N: ranks - 1, Reps: 1},
		{A: 0, B: ranks - 1, SA: 1, SB: 1, N: 1, Reps: 1},
	}
	if ranks == 2 {
		ring = ring[:1]
	}
	steps := make([]BlockStep, ranks-1)
	for k := range steps {
		steps[k] = BlockStep{MsgSize: 1, Repeat: true}
	}
	steps[0] = BlockStep{Blocks: ring, MsgSize: 1}
	return steps
}
