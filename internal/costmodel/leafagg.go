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
	lay    *cluster.Layout
	sid    *collective.Step // identity of the steps slice (&steps[0])
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
	// on the flat per-pair scans. Always compiled when applicable — the
	// run-time toggle gates evaluation, not compilation, so flipping it
	// never invalidates cached schedules.
	agg *subtreeSchedule
}

// leafSchedSlots bounds the compiled-schedule cache. The steady-state
// working set is small — the adaptive selector prices two candidates per
// request and the simulator re-costs the chosen one — while unbounded
// candidate churn (rank remapping's hill climb) just cycles the ring.
const leafSchedSlots = 64

// leafSchedCache is the shared compiled-schedule cache: a mutex-guarded
// ring of immutable entries, keyed on all a compiled schedule depends on:
// (layout, steps identity, the node list's rank→leaf run sequence).
// Entries hold strong references to their steps slices, so a cached sid
// pointer can never be recycled for a different schedule. Like the
// schedule memo this assumes steps are never mutated after being costed;
// ScheduleFor's memoized schedules satisfy that by contract.
var leafSchedCache struct {
	mu   sync.Mutex
	ents [leafSchedSlots]*leafSchedule
	next int
}

// leafSchedFor returns the compiled schedule for (steps, placement),
// building and caching it on first use. steps must be non-empty; memo is
// their ScheduleFor entry, if any. The returned entry is shared and
// read-only. A selector-built placement brings its run sequence, which is
// the cache key as it stands; a wrapped list is reduced here. A nil entry
// with a nil error means such a list repeats a node id or names one outside
// the topology: the run view cannot express what the reference loops do
// with such pairs, so the caller prices the list through them.
func leafSchedFor(lay *cluster.Layout, pl *cluster.Placement, steps []collective.Step, memo *memoSchedule) (*leafSchedule, error) {
	sc := buildScratchPool.Get().(*buildScratch)
	defer buildScratchPool.Put(sc)
	if !pl.Reduce(lay, &sc.scan) {
		return nil, nil
	}
	return sc.leafSched(lay, pl, steps, memo)
}

// leafSched is leafSchedFor for a placement whose runs are at hand: its
// own, or those a Reduce or Validate just left in sc.scan.
func (sc *buildScratch) leafSched(lay *cluster.Layout, pl *cluster.Placement, steps []collective.Step, memo *memoSchedule) (*leafSchedule, error) {
	runs := pl.Runs()
	leafSchedCache.mu.Lock()
	for _, ls := range leafSchedCache.ents {
		if ls != nil && ls.sid == &steps[0] && ls.nSteps == len(steps) && ls.lay == lay && slices.Equal(ls.runs, runs) {
			leafSchedCache.mu.Unlock()
			return ls, nil
		}
	}
	leafSchedCache.mu.Unlock()
	ls, err := buildLeafSchedule(lay, sc, runs, steps, memo)
	if err != nil {
		return nil, err
	}
	ls.runs = pl.RunsKey()
	leafSchedCache.mu.Lock()
	leafSchedCache.ents[leafSchedCache.next] = ls                    //lint:allow globalmut ring-buffer memo insert under leafSchedCache.mu; entries are immutable once built
	leafSchedCache.next = (leafSchedCache.next + 1) % leafSchedSlots //lint:allow globalmut ring cursor advance under leafSchedCache.mu
	leafSchedCache.mu.Unlock()
	return ls, nil
}

// rankRun is one rank's view of the node list's leaf runs: its leaf's index
// in ls.leaves, and the rank ending its maximal run of ranks on that leaf.
type rankRun struct{ pos, end int32 }

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
	scan      cluster.Scratch
	ranks     []rankRun // rank -> run view, filled by buildLeafSchedule
	leafPos   []int32   // real leaf -> index into ls.leaves, valid per epoch
	leafEpoch []uint32
	pairID    []int32 // compact pair -> index into ls.pairLi, valid per epoch
	pairEpoch []uint32
	stepTag   []uint32 // compact pair -> tag of the step that last saw it
	stepPos   []int32  // compact pair -> position in ls.ids for that step
	epoch     uint32
	tag       uint32
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

// segAt returns the stride and length of the maximal affine segment that
// starts at pairs[i]: the longest stretch pairs[i+t] = (A+s·t, B+s·t) with
// one stride s > 0 (moot at length 1). Every collective.Pattern emits these:
// butterfly blocks at stride 1, folds and matchings at stride 2.
func segAt(pairs []collective.Pair, i int) (stride, n int) {
	rest := pairs[i:]
	if len(rest) < 2 || rest[1].A <= rest[0].A {
		return 1, 1
	}
	stride, n = rest[1].A-rest[0].A, 1
	for n < len(rest) && rest[n].A-rest[n-1].A == stride && rest[n].B-rest[n-1].B == stride {
		n++
	}
	return stride, n
}

// buildLeafSchedule compiles steps against a placement's run sequence
// (cluster.Placement.Runs). Each step's pairs are consumed as affine
// segments (the memo's stored ones, else detected on the fly) and each
// segment is walked in pieces that stay inside one leaf run on both sides,
// so one pair-table update with multiplicity k stands for k node pairs
// (DESIGN.md §7). Pair ranks are validated in exactly the reference loops' order
// (steps in order, pairs in order, repeat steps skipped), so a build
// failure reproduces the reference error.
func buildLeafSchedule(lay *cluster.Layout, sc *buildScratch, runs []uint64, steps []collective.Step, memo *memoSchedule) (*leafSchedule, error) {
	n := int(runs[len(runs)-1])
	sc.begin(lay)
	ls := &leafSchedule{
		lay:    lay,
		sid:    &steps[0],
		nSteps: len(steps),
		off:    make([]int32, len(steps)+1),
		kind:   make([]uint8, len(steps)),
		msg:    make([]float64, len(steps)),
	}
	if cap(sc.ranks) < n {
		sc.ranks = make([]rankRun, n)
	}
	ranks := sc.ranks[:n]
	for i, run := range runs[:len(runs)-1] {
		l, r, end := int32(run>>32), int(uint32(run)), int(uint32(runs[i+1]))
		if sc.leafEpoch[l] != sc.epoch {
			sc.leafEpoch[l] = sc.epoch
			sc.leafPos[l] = int32(len(ls.leaves))
			ls.leaves = append(ls.leaves, l)
			ls.counts = append(ls.counts, 0)
		}
		pos := sc.leafPos[l]
		ls.counts[pos] += int32(end - r)
		for ; r < end; r++ {
			ranks[r] = rankRun{pos, int32(end)}
		}
	}
	// The pair index is compact: pairs are keyed by the touched-leaf
	// positions just assigned, never by real leaf indices, so the scratch
	// is O(touched²) whatever the machine size.
	nTouched := len(ls.leaves)
	sc.ensurePairs(nTouched)

	seg := 0 // cursor into memo.seg, which lists segments in this walk's order
	var prevPairs *collective.Pair
	for sIdx := range steps {
		step := &steps[sIdx]
		ls.off[sIdx] = int32(len(ls.ids))
		ls.msg[sIdx] = step.MsgSize
		if len(step.Pairs) == 0 {
			ls.kind[sIdx] = stepEmpty
			continue
		}
		if prevPairs == &step.Pairs[0] {
			ls.kind[sIdx] = stepRepeat
			continue
		}
		prevPairs = &step.Pairs[0]
		sc.tag++
		if sc.tag == 0 {
			clear(sc.stepTag)
			sc.tag = 1
		}
		for i := 0; i < len(step.Pairs); {
			var a, b, s, left int
			if memo != nil {
				sg := memo.seg[seg]
				seg++
				a, b, s, left = int(sg.a), int(sg.b), int(sg.stride), int(sg.n)
			} else {
				a, b = step.Pairs[i].A, step.Pairs[i].B
				s, left = segAt(step.Pairs, i)
			}
			i += left
			if a < 0 || b < 0 || a+s*(left-1) >= n || b+s*(left-1) >= n {
				for a >= 0 && a < n && b >= 0 && b < n { // the first pair out of range, as the reference finds it
					a, b = a+s, b+s
				}
				return nil, fmt.Errorf("costmodel: step %d pair (%d,%d) out of range for %d nodes", sIdx, a, b, n)
			}
			if a == b {
				continue // self pairs: Hops(i,i) = 0, never the max
			}
			for left > 0 {
				ra, rb := ranks[a], ranks[b]
				k := min(int(ra.end)-a, int(rb.end)-b) // ranks left in the shorter run
				if s > 1 {
					k = (k + s - 1) / s // in strides
				}
				k = min(k, left)
				lo, hi := ra.pos, rb.pos // any canonical slot serves the scratch; the table orders by leaf
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
					ls.w = append(ls.w, int32(k))
				} else {
					ls.w[sc.stepPos[pidx]] += int32(k)
				}
				a, b, left = a+k*s, b+k*s, left-k
			}
		}
	}
	ls.off[len(steps)] = int32(len(ls.ids))
	ls.agg = buildSubtreeSchedule(lay, ls)
	return ls, nil
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
	if ls.aggEngaged() {
		return ls.evalAgg(st, overlay, hopBytes, baseMsgSize)
	}
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
		c := acquirePairCache(st, ls.lay)
		for p := range pv {
			pv[p] = c.at(ls.pairLi[p], ls.pairLj[p])
		}
		c.release()
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
	if ls.aggEngaged() {
		return ls.evalDistanceAgg()
	}
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
