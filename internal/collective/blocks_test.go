package collective

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
)

// The pair-by-pair generators Schedule used before RD, RHVD, Binomial and
// Ring became expansions of their closed-form Blocks, kept verbatim as the
// oracle those expansions are compared with.

// recursiveSchedule builds RD (vectorDoubling=false) or RHVD
// (vectorDoubling=true) schedules.
func recursiveSchedule(ranks int, vectorDoubling bool) []Step {
	q := bits.Len(uint(ranks)) - 1
	pow2 := 1 << q
	r := ranks - pow2

	// survivors maps the 2^q algorithm ranks to real ranks.
	survivors := make([]int, 0, pow2)
	if r == 0 {
		for i := 0; i < ranks; i++ {
			survivors = append(survivors, i)
		}
	} else {
		for i := 0; i < 2*r; i += 2 {
			survivors = append(survivors, i+1) // odd ranks of the folded prefix
		}
		for i := 2 * r; i < ranks; i++ {
			survivors = append(survivors, i)
		}
	}

	var steps []Step
	if r > 0 {
		pre := Step{MsgSize: 1}
		for m := 0; m < r; m++ {
			pre.Pairs = append(pre.Pairs, Pair{2 * m, 2*m + 1})
		}
		steps = append(steps, pre)
	}
	for k := 0; k < q; k++ {
		var dist int
		msize := 1.0
		if vectorDoubling {
			// Distance halves (2^(q-1-k)) while the vector doubles (2^k).
			dist = 1 << (q - 1 - k)
			msize = float64(int64(1) << k)
		} else {
			dist = 1 << k
		}
		st := Step{MsgSize: msize}
		for i := 0; i < pow2; i++ {
			j := i ^ dist
			if i < j {
				st.Pairs = append(st.Pairs, Pair{survivors[i], survivors[j]})
			}
		}
		steps = append(steps, st)
	}
	if r > 0 {
		post := Step{MsgSize: 1}
		if vectorDoubling {
			// The folded ranks receive the fully gathered vector.
			post.MsgSize = float64(pow2)
		}
		for m := 0; m < r; m++ {
			post.Pairs = append(post.Pairs, Pair{2 * m, 2*m + 1})
		}
		steps = append(steps, post)
	}
	return steps
}

// binomialSchedule builds the binomial-tree broadcast schedule: at step k,
// every rank i < 2^k with a partner i + 2^k < ranks sends to it.
func binomialSchedule(ranks int) []Step {
	var steps []Step
	for offset := 1; offset < ranks; offset <<= 1 {
		st := Step{MsgSize: 1}
		for i := 0; i < offset && i+offset < ranks; i++ {
			st.Pairs = append(st.Pairs, Pair{i, i + offset})
		}
		steps = append(steps, st)
	}
	return steps
}

// ringSchedule builds the ring allgather schedule: ranks-1 steps, each a
// full neighbour exchange around the ring.
func ringSchedule(ranks int) []Step {
	pairs := make([]Pair, 0, ranks)
	for i := 0; i < ranks; i++ {
		j := (i + 1) % ranks
		a, b := i, j
		if b < a {
			a, b = b, a
		}
		pairs = append(pairs, Pair{a, b})
	}
	if ranks == 2 {
		pairs = pairs[:1]
	}
	steps := make([]Step, ranks-1)
	for k := range steps {
		steps[k] = Step{Pairs: pairs, MsgSize: 1}
	}
	return steps
}

// oracleSchedule is Schedule as the pair-by-pair generators build it.
func oracleSchedule(p Pattern, ranks int) []Step {
	if ranks == 1 {
		return nil
	}
	switch p {
	case RD, RHVD:
		return recursiveSchedule(ranks, p == RHVD)
	case Binomial:
		return binomialSchedule(ranks)
	case Ring:
		return ringSchedule(ranks)
	case Stencil:
		return stencilSchedule(ranks)
	default:
		return alltoallSchedule(ranks)
	}
}

// sameSchedule compares two schedules pair for pair: order, MsgSize bit
// for bit, pair-less steps, and which steps share the previous non-empty
// step's Pairs (the identity the cost loops recognise repeats by).
func sameSchedule(got, want []Step) error {
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return fmt.Errorf("%d steps (nil: %v), want %d (nil: %v)", len(got), got == nil, len(want), want == nil)
	}
	var prevGot, prevWant *Pair
	for s := range want {
		g, w := got[s], want[s]
		if math.Float64bits(g.MsgSize) != math.Float64bits(w.MsgSize) {
			return fmt.Errorf("step %d: MsgSize %v, want %v", s, g.MsgSize, w.MsgSize)
		}
		if len(g.Pairs) != len(w.Pairs) {
			return fmt.Errorf("step %d: %d pairs, want %d", s, len(g.Pairs), len(w.Pairs))
		}
		if len(w.Pairs) == 0 {
			continue
		}
		if (prevGot == &g.Pairs[0]) != (prevWant == &w.Pairs[0]) {
			return fmt.Errorf("step %d: shares the previous step's pairs: %v, want %v", s, prevGot == &g.Pairs[0], prevWant == &w.Pairs[0])
		}
		if prevWant == &w.Pairs[0] {
			continue
		}
		prevGot, prevWant = &g.Pairs[0], &w.Pairs[0]
		for i := range w.Pairs {
			if g.Pairs[i] != w.Pairs[i] {
				return fmt.Errorf("step %d pair %d: %+v, want %+v", s, i, g.Pairs[i], w.Pairs[i])
			}
		}
	}
	return nil
}

// checkBlocks requires every block to keep Block's documented invariants.
func checkBlocks(blocks []BlockStep) error {
	for s, bs := range blocks {
		if bs.Repeat && len(bs.Blocks) > 0 {
			return fmt.Errorf("step %d: a repeat with blocks of its own", s)
		}
		for _, k := range bs.Blocks {
			if k.N < 1 || k.Reps < 1 || k.SA < 1 || k.SB < 1 || k.Reps > 1 && k.Outer < 1 {
				return fmt.Errorf("step %d: degenerate block %+v", s, k)
			}
			if k.SA == k.SB {
				continue
			}
			for t := 0; t < k.N; t++ {
				if k.A+k.SA*t == k.B+k.SB*t {
					return fmt.Errorf("step %d: unequal-stride block %+v holds a self pair", s, k)
				}
			}
		}
	}
	return nil
}

// TestBlocksExpandToSchedule compares Blocks, expanded, and Schedule with
// the pair-by-pair generators over every small size and the sizes around
// the machines' job widths, and pins the block count of the closed forms:
// one block per power-of-two step, at most four per folded step — never
// one per folded rank.
func TestBlocksExpandToSchedule(t *testing.T) {
	var sizes []int
	for n := 1; n <= 600; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 1000, 1023, 1024, 1025, 4096, 5263, 32768, 40960)
	for _, p := range []Pattern{RD, RHVD, Binomial, Ring, Stencil, Alltoall} {
		for _, n := range sizes {
			if p == Alltoall && (n > 1025 || n > 128 && n < 1000 && n%16 > 1) {
				continue // n−1 steps of n/2 pairs, a map per step: past 128 only around multiples of 16
			}
			label := fmt.Sprintf("%v(%d)", p, n)
			want := oracleSchedule(p, n)
			blocks, err := p.Blocks(n)
			if err != nil {
				t.Fatalf("%s: Blocks: %v", label, err)
			}
			if err := checkBlocks(blocks); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := sameSchedule(Expand(blocks), want); err != nil {
				t.Fatalf("%s: expanded Blocks: %v", label, err)
			}
			if p > Ring {
				continue // Schedule is the generator itself
			}
			if err := sameSchedule(p.MustSchedule(n), want); err != nil {
				t.Fatalf("%s: Schedule: %v", label, err)
			}
			if p == Ring {
				continue
			}
			count := 0
			for _, bs := range blocks {
				count += len(bs.Blocks)
			}
			limit := len(want)
			if n&(n-1) != 0 {
				limit = 4*len(want) + 4
			}
			if count > limit {
				t.Errorf("%s: %d blocks for %d steps, want at most %d", label, count, len(want), limit)
			}
		}
	}
	if _, err := RD.Blocks(0); err == nil {
		t.Error("RD.Blocks(0): expected error")
	}
	if _, err := Pattern(99).Blocks(4); err == nil {
		t.Error("unknown pattern: expected error")
	}
}

// TestCompactFoldsRepetitions pins what the detector is for: equal-shape
// stretches at one outer stride come back as a single block, and a stretch
// with unequal strides breaks around a pair of equal ranks.
func TestCompactFoldsRepetitions(t *testing.T) {
	for _, n := range []int{64, 4096} {
		for k, bs := range Compact(RD.MustSchedule(n)) {
			if len(bs.Blocks) != 1 {
				t.Errorf("RD(%d) step %d: %d blocks, want 1", n, k, len(bs.Blocks))
			}
		}
	}
	// (0,4) (2,5) (4,6) (6,7) has strides (2,1); (8,8) would continue it.
	pairs := []Pair{{0, 4}, {2, 5}, {4, 6}, {6, 7}, {8, 8}, {10, 9}}
	blocks := Compact([]Step{{Pairs: pairs, MsgSize: 1}})
	if err := checkBlocks(blocks); err != nil {
		t.Fatal(err)
	}
	if got := blocks[0].Blocks; len(got) != 3 || got[0].N != 4 || got[1] != (Block{A: 8, B: 8, SA: 1, SB: 1, N: 1, Reps: 1}) {
		t.Errorf("blocks %+v, want the self pair (8,8) on its own after a 4-pair stretch", got)
	}
}

// FuzzCompactExpand checks that arbitrary step lists — self pairs, A > B,
// descending and repeated pairs, pair-less and repeated steps — survive
// Compact then Expand unchanged, through blocks that keep the invariants.
func FuzzCompactExpand(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 3, 2, 2, 1, 3, 3, 1, 0, 0, 9, 9, 1, 1, 0})
	f.Add([]byte{0, 0, 255, 2, 5, 5, 1, 2, 6, 6, 1, 2, 0, 3, 7, 7, 200, 1})
	f.Add([]byte{3, 9, 4, 0, 251, 3, 3, 1, 1, 2, 2, 8, 0, 4, 2, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bytes are consumed as runs (a, b, Δa, Δb, length); a length byte
		// of 0 ends the step, 255 repeats the previous non-empty step.
		var steps []Step
		cur := Step{MsgSize: 1}
		var prev []Pair
		flush := func() {
			if len(cur.Pairs) > 0 {
				prev = cur.Pairs
			}
			steps = append(steps, cur)
			cur = Step{MsgSize: float64(len(steps) + 1)}
		}
		for len(data) >= 5 && len(steps) < 8 {
			a, b, da, db, n := int(data[0]%32), int(data[1]%32), int(int8(data[2]))%4, int(int8(data[3]))%4, data[4]
			data = data[5:]
			switch n {
			case 0:
				flush()
			case 255:
				flush()
				cur.Pairs = prev
				flush()
			default:
				for i := 0; i < int(n%9); i++ {
					cur.Pairs = append(cur.Pairs, Pair{a + da*i, b + db*i})
				}
			}
		}
		flush()
		blocks := Compact(steps)
		if err := checkBlocks(blocks); err != nil {
			t.Fatal(err)
		}
		if err := sameSchedule(Expand(blocks), steps); err != nil {
			t.Fatalf("%v\nsteps  %+v\nblocks %+v", err, steps, blocks)
		}
	})
}

var blocksSink []BlockStep

// BenchmarkScheduleBlocks measures closed-form schedule generation, what a
// cold pricing of an un-memoised (pattern, size) pays in place of listing
// the pairs: two allocations, the steps and their blocks.
func BenchmarkScheduleBlocks(b *testing.B) {
	for _, p := range Patterns {
		for _, n := range []int{4096, 5263, 32768} {
			b.Run(fmt.Sprintf("%v/%d", p, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					blocksSink, _ = p.Blocks(n)
				}
			})
		}
	}
}
