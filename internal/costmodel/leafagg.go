package costmodel

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/collective"
)

// Leaf-aggregated cost kernel.
//
// Eq. 6 evaluates, per schedule step, the maximum of Eq. 5's
// Hops(i,j) = d(i,j)·(1+C(i,j)) over the step's rank pairs. For i ≠ j both
// factors depend on the nodes only through their leaf switches, so the
// step's node pairs regroup by leaf pair: a pair (l_a, l_b) that m node
// pairs map onto contributes the term Hops(l_a, l_b) with multiplicity m,
// and since max over a multiset equals max over its support, the step
// reduces to the distinct leaf pairs it touches — O(L²) terms for L
// occupied leaves instead of O(n²) node pairs (see DESIGN.md §7 for the
// term-for-term derivation). The regrouping itself is independent of the
// cluster state: it is a pure function of (schedule, node→leaf map), so it
// is precomputed once into a leafSchedule and reused across generations,
// with only the per-pair Hops values re-read from the live counters.

// Step kinds of a compiled leafSchedule.
const (
	// stepCompute scans the step's leaf-pair list and updates the running
	// max that repeat steps reuse.
	stepCompute uint8 = iota
	// stepEmpty is a pair-less step: it contributes zero and leaves the
	// running max untouched (mirroring the reference loops, which only
	// update their memo for steps with pairs).
	stepEmpty
	// stepRepeat shares its pairs slice with the previous non-empty step
	// (the ring schedule repeats one matching P−1 times) and is charged the
	// memoised maximum.
	stepRepeat
)

// leafSchedule is a collective schedule compiled against one node list:
// the candidate's per-leaf node counts, the distinct leaf pairs its steps
// touch, and per-step index lists into that pair table. Entries are
// immutable after construction and safe for concurrent evaluation; all
// mutable evaluation state lives in pooled scratches.
type leafSchedule struct {
	lay *cluster.Layout
	// The cache key's second part: pat's own schedule over the ranks runs
	// ends with (sid nil), or caller-supplied steps, known by &steps[0].
	pat    collective.Pattern
	sid    *collective.Step
	nSteps int
	runs   []uint64 // the placement's run sequence (cluster.Placement.Runs), the cache key's third part

	// leaves/counts are the distinct leaf indices hosting the job's nodes
	// and the node count c_i on each — the histogram the candidate overlay
	// adds to the live L_comm counters.
	leaves []int32
	counts []int32

	// pairLi/pairLj list the distinct leaf pairs (li ≤ lj, real leaf
	// indices) any step touches; ids/w are the per-step flat lists of
	// indices into that table with their node-pair multiplicities
	// (ids[off[s]:off[s+1]] for step s). The multiplicities are not needed
	// for the max — they document the regrouping and let tests check it
	// term for term.
	pairLi, pairLj []int32
	ids, w         []int32
	off            []int32
	kind           []uint8
	msg            []float64 // per-step MsgSize, for the hop-bytes variant

	// agg is the subtree-aggregated evaluation stage (subtreeagg.go),
	// compiled when the schedule is wide enough for the kernel heuristic
	// and the layout has a usable aggregation level; nil keeps evaluation
	// on the flat per-pair scans. Which kernel evaluates a schedule is
	// decided here, at compile time, from the schedule's width alone.
	agg *subtreeSchedule
}

// leafSchedSlots bounds the compiled-schedule cache. The steady-state
// working set is small — the adaptive selector prices two candidates per
// request and the simulator re-costs the chosen one — while unbounded
// candidate churn (rank remapping's hill climb) just cycles the ring.
const leafSchedSlots = 64

// leafSchedCache is the shared compiled-schedule cache: a mutex-guarded
// ring of immutable entries, keyed on all a compiled schedule depends on:
// (layout, schedule, the node list's rank→leaf run sequence). A pattern's
// own schedule is named by the pattern, so pricing finds its entry without
// the schedule in hand; caller-supplied steps by slice identity, and the
// entry's sid keeps that slice alive, so the address cannot be recycled for
// another schedule while the entry is cached. Like the schedule memo this
// assumes steps are never mutated after being costed; ScheduleFor's
// memoized schedules satisfy that by contract.
var leafSchedCache struct {
	mu   sync.Mutex
	ents [leafSchedSlots]*leafSchedule
	next int
}

// leafSchedFor returns the compiled schedule for (steps, nodes), building
// and caching it on first use. steps must be non-empty. The returned entry
// is shared and read-only. A nil entry with a nil error means the list
// repeats a node id or names one outside the topology: the run view cannot
// express what the reference loops do with such pairs, so the caller prices
// the list through them.
func leafSchedFor(st *cluster.State, nodes []int, steps []collective.Step) (*leafSchedule, error) {
	lay, pl := cluster.LayoutOf(st.Topology()), cluster.NewPlacement(nodes)
	sc := buildScratchPool.Get().(*buildScratch)
	defer buildScratchPool.Put(sc)
	if !pl.Reduce(lay, &sc.scan) {
		return nil, nil
	}
	return sc.leafSched(lay, &pl, 0, steps)
}

// leafSched is leafSchedFor for a placement whose runs are at hand: its
// own (a selector-built placement's run sequence is the cache key as it
// stands), or those a Reduce or Validate just left in sc.scan. With steps
// nil it compiles pat's own schedule, fetching its blocks only on a cache
// miss; the entry is nil if that schedule has no steps.
func (sc *buildScratch) leafSched(lay *cluster.Layout, pl *cluster.Placement, pat collective.Pattern, steps []collective.Step) (*leafSchedule, error) {
	runs := pl.Runs()
	var sid *collective.Step
	if steps != nil {
		sid = &steps[0]
	}
	leafSchedCache.mu.Lock()
	for _, ls := range leafSchedCache.ents {
		if ls != nil && ls.sid == sid && ls.pat == pat && (sid == nil || ls.nSteps == len(steps)) && ls.lay == lay && slices.Equal(ls.runs, runs) {
			leafSchedCache.mu.Unlock()
			return ls, nil
		}
	}
	leafSchedCache.mu.Unlock()
	var blocks []collective.BlockStep
	if sid == nil {
		var err error
		if blocks, err = blocksFor(pat, pl.Len()); err != nil || len(blocks) == 0 {
			return nil, err
		}
	}
	ls, err := buildLeafSchedule(lay, sc, runs, steps, blocks)
	if err != nil {
		return nil, err
	}
	ls.pat, ls.sid, ls.runs = pat, sid, pl.RunsKey()
	leafSchedCache.mu.Lock()
	leafSchedCache.ents[leafSchedCache.next] = ls                    //lint:allow globalmut ring-buffer memo insert under leafSchedCache.mu; entries are immutable once built
	leafSchedCache.next = (leafSchedCache.next + 1) % leafSchedSlots //lint:allow globalmut ring cursor advance under leafSchedCache.mu
	leafSchedCache.mu.Unlock()
	return ls, nil
}

// buildScratch is the pooled working set of leafSchedFor and of candidate
// validation: the cluster.Scratch a wrapped list is scanned with, and the
// epoch- and tag-stamped leaf and leaf-pair arrays that replace per-build
// maps. The leaf arrays are sized off the layout; the pair arrays are
// indexed by *compact* touched-leaf positions, so they are O(touched²) —
// the sparse index that lets compilation scale past the old 128-leaf dense
// matrices (a job touching k leaves needs k² slots however large L is).
// Arrays grow on demand and persist in the pool; freshly grown arrays are
// zeroed, which the monotone epoch/tag counters read as stale.
type buildScratch struct {
	scan                   cluster.Scratch
	leafPos                []int32 // real leaf -> index into ls.leaves, valid per epoch
	runPos                 []int32 // run -> index of its leaf in ls.leaves
	leafEpoch              []uint32
	pairID                 []int32 // compact pair -> index into ls.pairLi, valid per epoch
	pairEpoch              []uint32
	stepTag                []uint32 // compact pair -> tag of the step that last saw it
	stepPos                []int32  // compact pair -> position in ls.ids for that step
	pairLi, pairLj, ids, w []int32  // what a schedule's tables grow in; it keeps exact copies
	epoch                  uint32
	tag                    uint32
}

var buildScratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// ensurePairs sizes the compact pair arrays for n touched leaves.
func (sc *buildScratch) ensurePairs(n int) {
	if len(sc.pairID) < n*n {
		sc.pairID = make([]int32, n*n)
		sc.pairEpoch = make([]uint32, n*n)
		sc.stepTag = make([]uint32, n*n)
		sc.stepPos = make([]int32, n*n)
	}
}

// begin opens a new epoch for a compile against lay.
func (sc *buildScratch) begin(lay *cluster.Layout) {
	if len(sc.leafPos) < lay.L {
		sc.leafPos = make([]int32, lay.L)
		sc.leafEpoch = make([]uint32, lay.L)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide
		clear(sc.leafEpoch)
		clear(sc.pairEpoch)
		sc.epoch = 1
	}
}

// runCursor is one side's place in the run sequence: run i holds the ranks
// [lo, end) on the leaf at position pos of ls.leaves.
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

// compiler is the state of one buildLeafSchedule: the schedule being built,
// the runs it is compiled against, and a run cursor per side of the pairs.
type compiler struct {
	ls     *leafSchedule
	sc     *buildScratch
	runs   []uint64
	n      int // ranks
	ca, cb runCursor
}

// buildLeafSchedule compiles a schedule against a placement's run sequence
// (cluster.Placement.Runs) without visiting pairs or ranks. The schedule
// comes as a pattern's blocks or, blocks nil, as caller-supplied steps cut
// into single-repetition blocks on the fly (collective.SegmentAt: no
// allocation); compiler.block walks either. Pair ranks are validated in
// exactly the reference loops' order (steps in order, pairs in order,
// repeat steps skipped), so a build failure reproduces the reference error.
func buildLeafSchedule(lay *cluster.Layout, sc *buildScratch, runs []uint64, steps []collective.Step, blocks []collective.BlockStep) (*leafSchedule, error) {
	nSteps := max(len(steps), len(blocks))
	sc.begin(lay)
	ls := &leafSchedule{
		lay:    lay,
		nSteps: nSteps,
		off:    make([]int32, nSteps+1),
		kind:   make([]uint8, nSteps),
		msg:    make([]float64, nSteps),
		pairLi: sc.pairLi[:0], pairLj: sc.pairLj[:0], ids: sc.ids[:0], w: sc.w[:0],
	}
	if cap(sc.runPos) < len(runs) {
		sc.runPos = make([]int32, len(runs))
	}
	sc.runPos = sc.runPos[:len(runs)]
	for i, run := range runs[:len(runs)-1] {
		l := int32(run >> 32)
		if sc.leafEpoch[l] != sc.epoch {
			sc.leafEpoch[l] = sc.epoch
			sc.leafPos[l] = int32(len(ls.leaves))
			ls.leaves = append(ls.leaves, l)
			ls.counts = append(ls.counts, 0)
		}
		sc.runPos[i] = sc.leafPos[l]
		ls.counts[sc.leafPos[l]] += int32(uint32(runs[i+1]) - uint32(run))
	}
	// The pair index is compact: pairs are keyed by the touched-leaf
	// positions just assigned, never by real leaf indices, so the scratch
	// is O(touched²) whatever the machine size.
	sc.ensurePairs(len(ls.leaves))

	first := runCursor{0, 0, int(uint32(runs[1])), sc.runPos[0]}
	c := compiler{ls: ls, sc: sc, runs: runs, n: int(runs[len(runs)-1]), ca: first, cb: first}
	var prevPairs *collective.Pair
	for sIdx := 0; sIdx < nSteps; sIdx++ {
		ls.off[sIdx] = int32(len(ls.ids))
		var pairs []collective.Pair
		var stepBlocks []collective.Block
		var repeat bool
		if blocks != nil {
			bs := &blocks[sIdx]
			ls.msg[sIdx], stepBlocks, repeat = bs.MsgSize, bs.Blocks, bs.Repeat
		} else {
			ls.msg[sIdx], pairs = steps[sIdx].MsgSize, steps[sIdx].Pairs
			repeat = len(pairs) > 0 && prevPairs == &pairs[0]
		}
		if repeat {
			ls.kind[sIdx] = stepRepeat
			continue
		}
		if len(pairs) == 0 && len(stepBlocks) == 0 {
			ls.kind[sIdx] = stepEmpty
			continue
		}
		sc.tag++
		if sc.tag == 0 {
			clear(sc.stepTag)
			sc.tag = 1
		}
		for i := range stepBlocks {
			if err := c.block(sIdx, &stepBlocks[i]); err != nil {
				return nil, err
			}
		}
		if len(pairs) > 0 {
			prevPairs = &pairs[0]
		}
		for i := 0; i < len(pairs); {
			k := collective.SegmentAt(pairs, i)
			i += k.N
			if err := c.block(sIdx, &k); err != nil {
				return nil, err
			}
		}
	}
	ls.off[nSteps] = int32(len(ls.ids))
	// The tables grew in the scratch's buffers, which stay with it.
	sc.pairLi, sc.pairLj, sc.ids, sc.w = ls.pairLi, ls.pairLj, ls.ids, ls.w
	ls.pairLi, ls.pairLj, ls.ids, ls.w = slices.Clone(ls.pairLi), slices.Clone(ls.pairLj), slices.Clone(ls.ids), slices.Clone(ls.w)
	ls.agg = buildSubtreeSchedule(lay, ls)
	return ls, nil
}

// ceilDiv is ⌈x/y⌉ for y ≥ 1 (at most 0 for x ≤ 0): the number of ranks
// x₀, x₀+y, x₀+2y, … among the next x.
func ceilDiv(x, y int) int {
	if y == 1 {
		return x
	}
	return (x + y - 1) / y
}

// firstOutOfRange returns the first pair, in listing order, of a block
// that has one with a rank outside [0, n): the pair the reference loops
// would stop at.
func firstOutOfRange(k *collective.Block, n int) (a, b int) {
	a, b = k.A, k.B
	if a < 0 || b < 0 { // sides only grow: the first pair already is
		return a, b
	}
	if k.Reps > 1 {
		// The first repetition whose last pair leaves the range on a side.
		u := max(0, min(ceilDiv(n-a-k.SA*(k.N-1), k.Outer), ceilDiv(n-b-k.SB*(k.N-1), k.Outer)))
		a, b = a+k.Outer*u, b+k.Outer*u
	}
	t := max(0, min(ceilDiv(n-a, k.SA), ceilDiv(n-b, k.SB)))
	return a + k.SA*t, b + k.SB*t
}

// block adds one block's pairs to step sIdx by walking run breakpoints.
// Where a repetition's whole span lies inside one run on both sides, so do
// the next ones until either run ends, and all of them are one pair-table
// update; otherwise the repetition is cut into pieces that stay inside one
// run on both sides. Pieces follow the pairs' listing order and every pair
// of a piece joins the same two leaves, so discovery order and
// multiplicities are those of a pair-by-pair walk (DESIGN.md §7).
func (c *compiler) block(sIdx int, k *collective.Block) error {
	n := c.n
	spanA, spanB := k.SA*(k.N-1), k.SB*(k.N-1)
	if last := k.Outer * (k.Reps - 1); k.A < 0 || k.B < 0 || k.A+spanA+last >= n || k.B+spanB+last >= n {
		a, b := firstOutOfRange(k, n)
		return fmt.Errorf("costmodel: step %d pair (%d,%d) out of range for %d nodes", sIdx, a, b, n)
	}
	if k.A == k.B && k.SA == k.SB {
		return nil // self pairs: Hops(i,i) = 0, never the max
	}
	ls, sc, runs := c.ls, c.sc, c.runs
	nTouched := len(ls.leaves)
	ca, cb := c.ca, c.cb
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
				reps = min(k.Reps-u, roomA/k.Outer+1, roomB/k.Outer+1)
			}
			m, u = reps*k.N, u+reps
		} else {
			m, u = min(ceilDiv(ca.end-a, k.SA), ceilDiv(cb.end-b, k.SB)), u+1
		}
		for left := k.N; ; {
			lo, hi := ca.pos, cb.pos // any canonical slot serves the scratch; the table orders by leaf
			if lo > hi {
				lo, hi = hi, lo
			}
			pidx := int(lo)*nTouched + int(hi)
			if sc.pairEpoch[pidx] != sc.epoch {
				sc.pairEpoch[pidx] = sc.epoch
				sc.pairID[pidx] = int32(len(ls.pairLi))
				li, lj := ls.leaves[lo], ls.leaves[hi]
				ls.pairLi = append(ls.pairLi, min(li, lj))
				ls.pairLj = append(ls.pairLj, max(li, lj))
			}
			if sc.stepTag[pidx] != sc.tag {
				sc.stepTag[pidx] = sc.tag
				sc.stepPos[pidx] = int32(len(ls.ids))
				ls.ids = append(ls.ids, sc.pairID[pidx])
				ls.w = append(ls.w, int32(m))
			} else {
				ls.w[sc.stepPos[pidx]] += int32(m)
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
	c.ca, c.cb = ca, cb
	return nil
}

// leafHops computes Eq. 5 between two leaves from the live counters,
// mirroring Hops/Contention expression for expression (same conversions,
// same association order), so kernel and reference evaluations are
// bit-identical.
//
//caws:noalloc
func leafHops(st *cluster.State, lay *cluster.Layout, li, lj int32) float64 {
	d := lay.Dist(li, lj)
	if li == lj {
		return d * (1 + st.CommShare(int(li)))
	}
	shared := 0.5 * float64(st.LeafComm(int(li))+st.LeafComm(int(lj))) / lay.PairSize(li, lj)
	return d * (1 + (st.CommShare(int(li)) + st.CommShare(int(lj)) + shared))
}

// evalScratch holds one evaluation's mutable state: the prefilled per-pair
// Hops values and the candidate overlay (leaf-indexed comm counts and
// shares, epoch-stamped so they reset in O(touched leaves)). The overlay
// arrays are arenas sized off the layout (grown on demand, then pooled), so
// large-L costing stays zero-alloc in the steady state; distinct concurrent
// evaluations draw distinct instances.
type evalScratch struct {
	pairVal []float64
	ovComm  []int
	ovShare []float64
	ovSet   []uint32
	ovEpoch uint32

	// Aggregated-kernel arenas (subtreeagg.go): per touched subtree the
	// uniformity pass's shared (comm, size) state and verdict, per
	// cross-subtree block its collapsed value and non-uniform flag. Sized
	// by ensureAgg, fully rewritten each evaluation (no stamps needed).
	subComm    []int32
	subSize    []int32
	subUniform []bool
	blockVal   []float64
	blockNU    []bool
}

var evalScratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// ensureLeaves sizes the overlay arenas for a layout with l leaves.
// Growing discards the old stamps; the fresh zeroed ovSet reads as stale
// against the monotone ovEpoch, exactly like an epoch bump.
func (sc *evalScratch) ensureLeaves(l int) {
	if len(sc.ovSet) < l {
		sc.ovComm = make([]int, l)
		sc.ovShare = make([]float64, l)
		sc.ovSet = make([]uint32, l)
	}
}

// beginOverlay installs the schedule's leaf histogram as a comm-counter
// overlay: leaf l reads as L_comm(l) + c_l, with the share recomputed by
// the same division State.updateShare would store after a real Allocate —
// so overlay costing is bit-identical to tentative allocation.
func (sc *evalScratch) beginOverlay(st *cluster.State, lay *cluster.Layout, ls *leafSchedule) {
	sc.ensureLeaves(lay.L)
	sc.ovEpoch++
	if sc.ovEpoch == 0 { // wrapped: stale stamps could collide
		clear(sc.ovSet)
		sc.ovEpoch = 1
	}
	for i, l := range ls.leaves {
		comm := st.LeafComm(int(l)) + int(ls.counts[i])
		sc.ovComm[l] = comm
		sc.ovShare[l] = float64(comm) / lay.LeafSize[l]
		sc.ovSet[l] = sc.ovEpoch
	}
}

// overlayHops is leafHops with the candidate overlay applied to whichever
// endpoints it covers.
//
//caws:noalloc
func (sc *evalScratch) overlayHops(st *cluster.State, lay *cluster.Layout, li, lj int32) float64 {
	commI, shareI := st.LeafComm(int(li)), st.CommShare(int(li))
	if sc.ovSet[li] == sc.ovEpoch {
		commI, shareI = sc.ovComm[li], sc.ovShare[li]
	}
	d := lay.Dist(li, lj)
	if li == lj {
		return d * (1 + shareI)
	}
	commJ, shareJ := st.LeafComm(int(lj)), st.CommShare(int(lj))
	if sc.ovSet[lj] == sc.ovEpoch {
		commJ, shareJ = sc.ovComm[lj], sc.ovShare[lj]
	}
	shared := 0.5 * float64(commI+commJ) / lay.PairSize(li, lj)
	return d * (1 + (shareI + shareJ + shared))
}

// eval computes Eq. 6 (or its hop-bytes weighting) over the compiled
// schedule against the live state, optionally with the candidate overlay.
// Leaf-pair Hops are prefilled in the schedule's fixed pair order — one
// computation per distinct pair — then each step takes the max over its
// index list, so sums are reproducible regardless of caller concurrency.
//
//caws:noalloc
func (ls *leafSchedule) eval(st *cluster.State, overlay, hopBytes bool, baseMsgSize float64) float64 {
	if ls.agg != nil {
		return ls.evalAgg(st, overlay, hopBytes, baseMsgSize)
	}
	return ls.evalFlat(st, overlay, hopBytes, baseMsgSize)
}

// evalFlat is eval as the flat scan over every distinct leaf pair: the
// kernel of a schedule without an aggregation stage, and the one evalAgg is
// tested against on a schedule with one.
//
//caws:noalloc
func (ls *leafSchedule) evalFlat(st *cluster.State, overlay, hopBytes bool, baseMsgSize float64) float64 {
	sc := evalScratchPool.Get().(*evalScratch)
	if cap(sc.pairVal) < len(ls.pairLi) {
		sc.pairVal = make([]float64, len(ls.pairLi))
	}
	pv := sc.pairVal[:len(ls.pairLi)]
	if overlay {
		sc.beginOverlay(st, ls.lay, ls)
		for p := range pv {
			pv[p] = sc.overlayHops(st, ls.lay, ls.pairLi[p], ls.pairLj[p])
		}
	} else {
		for p := range pv {
			pv[p] = leafHops(st, ls.lay, ls.pairLi[p], ls.pairLj[p])
		}
	}
	total, prevMax := 0.0, 0.0
	for s := 0; s < ls.nSteps; s++ {
		var max float64
		switch ls.kind[s] {
		case stepEmpty:
			continue
		case stepRepeat:
			max = prevMax
		default:
			for _, id := range ls.ids[ls.off[s]:ls.off[s+1]] {
				if v := pv[id]; v > max {
					max = v
				}
			}
			prevMax = max
		}
		if hopBytes {
			total += max * ls.msg[s] * baseMsgSize
		} else {
			total += max
		}
	}
	evalScratchPool.Put(sc)
	return total
}

// evalDistance is eval for the distance-only ablation: per-step max of
// d(i,j) with no contention term. Distances are prefilled once per
// distinct leaf pair (they are derived on demand from the layout's
// ancestor chains, so one walk per pair, not one per step reference);
// each is the exact conversion of the reference's integer distance, so
// the float max equals the reference's converted integer max bit for bit.
//
//caws:noalloc
func (ls *leafSchedule) evalDistance() float64 {
	if ls.agg != nil {
		return ls.evalDistanceAgg()
	}
	return ls.evalDistanceFlat()
}

// evalDistanceFlat is evalDistance as the flat scan (see evalFlat).
//
//caws:noalloc
func (ls *leafSchedule) evalDistanceFlat() float64 {
	lay := ls.lay
	sc := evalScratchPool.Get().(*evalScratch)
	if cap(sc.pairVal) < len(ls.pairLi) {
		sc.pairVal = make([]float64, len(ls.pairLi))
	}
	pv := sc.pairVal[:len(ls.pairLi)]
	for p := range pv {
		pv[p] = lay.Dist(ls.pairLi[p], ls.pairLj[p])
	}
	total, prevMax := 0.0, 0.0
	for s := 0; s < ls.nSteps; s++ {
		var max float64
		switch ls.kind[s] {
		case stepEmpty:
			continue
		case stepRepeat:
			max = prevMax
		default:
			for _, id := range ls.ids[ls.off[s]:ls.off[s+1]] {
				if v := pv[id]; v > max {
					max = v
				}
			}
			prevMax = max
		}
		total += max
	}
	evalScratchPool.Put(sc)
	return total
}
