package costmodel

import (
	"repro/internal/cluster"
	"repro/internal/collective"
)

// Subtree-aggregated cost kernel.
//
// The flat leaf kernel (leafagg.go) pays one term per distinct touched
// leaf pair — O(T²) for a job touching T leaves. On multi-tier trees the
// pairs regroup a second time: fix an aggregation level k and group the
// touched leaves by their level-k ancestor subtree (cluster.Layout.SubOf).
// For leaves a ∈ A, b ∈ B in *distinct* subtrees, the lowest common
// switch of (a, b) equals the lowest common switch of the two subtree
// ancestors, so d(a, b) is constant over the whole (A, B) block. The
// contention factor C(a, b) additionally depends on the two leaves' own
// (L_comm, L_nodes) integer state — so when every touched leaf of A
// carries identical state and likewise for B, every pair in the block has
// bit-identical Hops (same integers through the same float expressions)
// and the block's max collapses to ONE representative pair: max over a
// multiset equals max over its support, the same argument that collapsed
// node pairs to leaf pairs. Blocks whose subtrees are *not* uniform fall
// back to scanning the block's exact compiled pair list, so the collapse
// is an evaluation-time optimisation, never an approximation: the kernel
// is bit-identical to the flat evaluation in every state (see DESIGN.md
// §7 for the term-for-term derivation and why a state-independent
// representative could not be exact).
//
// Intra-subtree pairs are always evaluated exactly — there are few of
// them once S ≈ √T subtrees partition the touched set — so a wide-job
// step costs O(intra + S²) instead of O(T²). Uniformity is the common
// case for wide jobs (the job's own overlay adds the same +1 per leaf it
// saturates, and idle background leaves are identical), which is what
// yields the dragonfly-scale speedups pinned in the 4096-leaf benchmark.

// AggTouchedLeaves is the touched-leaf threshold of the automatic kernel
// heuristic: schedules touching fewer leaves stay on the flat leaf-pair
// kernel (the per-evaluation uniformity pass would cost more than it
// saves), wider ones compile the subtree-aggregated stage. Exported so
// the parity fuzzers can straddle it deliberately.
const AggTouchedLeaves = 96

// ScheduleAggregated reports whether costing (nodes, steps) against st's
// topology takes the subtree-aggregated stage: the layout has a usable
// aggregation level and the schedule touches at least AggTouchedLeaves
// leaves spanning a non-trivial subtree partition. Verification suites use
// it to assert their wide-job cases really exercise the aggregated path
// (and their narrow ones don't).
func ScheduleAggregated(st *cluster.State, nodes []int, steps []collective.Step) (bool, error) {
	if st.Reference() {
		return false, nil // a reference state bypasses the compiled kernels entirely
	}
	if len(steps) == 0 {
		return false, nil
	}
	ls, err := leafSchedFor(st, nodes, steps)
	if err != nil || ls == nil { // nil: priced by the reference loops
		return false, err
	}
	return ls.agg != nil, nil
}

// subtreeSchedule is the aggregation stage compiled on top of a
// leafSchedule: its distinct leaf pairs classified into intra-subtree
// pairs and cross-subtree blocks, with per-step index lists that let the
// evaluator charge a uniform block through one representative instead of
// scanning its pairs. Immutable after construction, like the leafSchedule
// it annotates.
type subtreeSchedule struct {
	// subs lists the distinct subtree ids (dense layout ids) the schedule
	// touches, in first-touched-leaf order; leafSub maps each touched-leaf
	// position (parallel to ls.leaves) to its compact index in subs.
	subs    []int32
	leafSub []int32

	// pairBlock classifies each distinct leaf pair (parallel to
	// ls.pairLi): -1 for an intra-subtree pair, else the cross-subtree
	// block index. intraPairs lists the intra pair ids once each (the
	// prefill set); blockA/blockB are each block's compact subtree
	// endpoints, blockRep its representative pair id, and
	// blockPairIDs[blockPairOff[b]:blockPairOff[b+1]] its full distinct
	// pair list (the non-uniform fallback prefill/scan set).
	pairBlock    []int32
	intraPairs   []int32
	blockA       []int32
	blockB       []int32
	blockRep     []int32
	blockPairIDs []int32
	blockPairOff []int32

	// Per-step evaluation lists. Step s scans the intra pair ids
	// intraIDs[intraOff[s]:intraOff[s+1]] exactly, then its block entries
	// e in [stepEntOff[s], stepEntOff[s+1]): entryBlock[e] names the
	// block, and crossIDs[entryOff[e]:entryOff[e+1]] holds the step's pair
	// ids in that block — scanned only when the block is non-uniform,
	// replaced by the one representative value otherwise.
	intraIDs   []int32
	intraOff   []int32
	entryBlock []int32
	entryOff   []int32
	crossIDs   []int32
	stepEntOff []int32
}

// buildSubtreeSchedule compiles the aggregation stage for a freshly built
// leafSchedule, or returns nil when the heuristic keeps the schedule on
// the flat kernel: the layout has no usable aggregation level, the
// schedule is narrower than AggTouchedLeaves, or the touched leaves
// partition trivially (one subtree — all pairs intra — or one leaf per
// subtree — every block a single pair). Compilation is a cold path (the
// result is cached with the leafSchedule), so it allocates freely.
func buildSubtreeSchedule(lay *cluster.Layout, ls *leafSchedule) *subtreeSchedule {
	nTouched := len(ls.leaves)
	if lay.AggLevel == 0 || nTouched < AggTouchedLeaves {
		return nil
	}
	ag := &subtreeSchedule{leafSub: make([]int32, nTouched)}
	subPos := make([]int32, lay.SubCount)
	for i := range subPos {
		subPos[i] = -1
	}
	for i, l := range ls.leaves {
		s := lay.SubOf[l]
		if subPos[s] == -1 {
			subPos[s] = int32(len(ag.subs))
			ag.subs = append(ag.subs, s)
		}
		ag.leafSub[i] = subPos[s]
	}
	nSubs := len(ag.subs)
	if nSubs < 2 || nSubs >= nTouched {
		return nil
	}

	// Classify the distinct pairs: intra-subtree pairs keep exact
	// per-pair evaluation; cross-subtree pairs group into blocks keyed on
	// the (unordered) compact subtree pair, each block remembering its
	// first pair as representative.
	nPairs := len(ls.pairLi)
	ag.pairBlock = make([]int32, nPairs)
	blockIdx := make([]int32, nSubs*nSubs)
	for i := range blockIdx {
		blockIdx[i] = -1
	}
	for p := 0; p < nPairs; p++ {
		a := subPos[lay.SubOf[ls.pairLi[p]]]
		b := subPos[lay.SubOf[ls.pairLj[p]]]
		if a == b {
			ag.pairBlock[p] = -1
			ag.intraPairs = append(ag.intraPairs, int32(p))
			continue
		}
		if a > b {
			a, b = b, a
		}
		key := int(a)*nSubs + int(b)
		blk := blockIdx[key]
		if blk == -1 {
			blk = int32(len(ag.blockA))
			blockIdx[key] = blk
			ag.blockA = append(ag.blockA, a)
			ag.blockB = append(ag.blockB, b)
			ag.blockRep = append(ag.blockRep, int32(p))
		}
		ag.pairBlock[p] = blk
	}
	nBlocks := len(ag.blockA)

	// Bucket the distinct cross pairs by block (counting sort) for the
	// non-uniform fallback prefill.
	ag.blockPairOff = make([]int32, nBlocks+1)
	for p := 0; p < nPairs; p++ {
		if blk := ag.pairBlock[p]; blk >= 0 {
			ag.blockPairOff[blk+1]++
		}
	}
	for b := 0; b < nBlocks; b++ {
		ag.blockPairOff[b+1] += ag.blockPairOff[b]
	}
	ag.blockPairIDs = make([]int32, ag.blockPairOff[nBlocks])
	cur := append([]int32(nil), ag.blockPairOff[:nBlocks]...)
	for p := 0; p < nPairs; p++ {
		if blk := ag.pairBlock[p]; blk >= 0 {
			ag.blockPairIDs[cur[blk]] = int32(p)
			cur[blk]++
		}
	}

	// Per-step lists: split each compute step's pair ids into its intra
	// run and its block entries, the entries in first-appearance order
	// with each entry's ids contiguous in crossIDs (two passes per step
	// over the step's ids, tag-stamped per block).
	ag.intraOff = make([]int32, ls.nSteps+1)
	ag.stepEntOff = make([]int32, ls.nSteps+1)
	blockTag := make([]uint32, nBlocks)
	blockEnt := make([]int32, nBlocks)
	var tag uint32
	var entCount, entCur []int32
	for s := 0; s < ls.nSteps; s++ {
		ag.intraOff[s] = int32(len(ag.intraIDs))
		ag.stepEntOff[s] = int32(len(ag.entryBlock))
		if ls.kind[s] != stepCompute {
			continue
		}
		ids := ls.ids[ls.off[s]:ls.off[s+1]]
		tag++
		entStart := int32(len(ag.entryBlock))
		entCount = entCount[:0]
		for _, id := range ids {
			blk := ag.pairBlock[id]
			if blk < 0 {
				ag.intraIDs = append(ag.intraIDs, id)
				continue
			}
			if blockTag[blk] != tag {
				blockTag[blk] = tag
				blockEnt[blk] = int32(len(ag.entryBlock))
				ag.entryBlock = append(ag.entryBlock, blk)
				entCount = append(entCount, 0)
			}
			entCount[blockEnt[blk]-entStart]++
		}
		base := int32(len(ag.crossIDs))
		entCur = entCur[:0]
		for _, n := range entCount {
			ag.entryOff = append(ag.entryOff, base)
			entCur = append(entCur, base)
			base += n
		}
		ag.crossIDs = append(ag.crossIDs, make([]int32, base-int32(len(ag.crossIDs)))...)
		for _, id := range ids {
			blk := ag.pairBlock[id]
			if blk < 0 {
				continue
			}
			c := &entCur[blockEnt[blk]-entStart]
			ag.crossIDs[*c] = id
			*c++
		}
	}
	ag.intraOff[ls.nSteps] = int32(len(ag.intraIDs))
	ag.stepEntOff[ls.nSteps] = int32(len(ag.entryBlock))
	ag.entryOff = append(ag.entryOff, int32(len(ag.crossIDs)))
	return ag
}

// ensureAgg sizes the scratch's aggregation arenas for a schedule with
// nSubs touched subtrees and nBlocks cross-subtree blocks. Like the
// overlay arenas they grow on demand and persist in the pool.
func (sc *evalScratch) ensureAgg(nSubs, nBlocks int) {
	if len(sc.subComm) < nSubs {
		sc.subComm = make([]int32, nSubs)
		sc.subSize = make([]int32, nSubs)
		sc.subUniform = make([]bool, nSubs)
	}
	if len(sc.blockVal) < nBlocks {
		sc.blockVal = make([]float64, nBlocks)
		sc.blockNU = make([]bool, nBlocks)
	}
}

// evalAgg is eval through the aggregation stage: bit-identical to the
// flat scan (the per-step max runs over the same multiset of values, just
// partitioned into intra pairs and blocks, and float max is
// order-independent for the positive, NaN-free hops values), but each
// uniform block costs one comparison instead of one per pair.
//
//caws:noalloc
func (ls *leafSchedule) evalAgg(st *cluster.State, overlay, hopBytes bool, baseMsgSize float64) float64 {
	ag := ls.agg
	lay := ls.lay
	sc := evalScratchPool.Get().(*evalScratch)
	if cap(sc.pairVal) < len(ls.pairLi) {
		sc.pairVal = make([]float64, len(ls.pairLi))
	}
	pv := sc.pairVal[:len(ls.pairLi)]
	nSubs, nBlocks := len(ag.subs), len(ag.blockA)
	if len(sc.subComm) < nSubs || len(sc.blockVal) < nBlocks {
		sc.ensureAgg(nSubs, nBlocks) // grow path, cold once the pool is warm
	}
	if overlay {
		sc.beginOverlay(st, lay, ls)
	}

	// Uniformity pass: a subtree is uniform when all its touched leaves
	// carry the same (L_comm, L_nodes) integer state — compared as the
	// exact integers, never the derived float shares, because equal
	// integers through the same division yield bit-identical shares (the
	// invariant State.CheckInvariants pins) while the converse is what the
	// collapse must not assume. Under the overlay every touched leaf was
	// just stamped by beginOverlay, so its effective comm is the overlay
	// value.
	subComm := sc.subComm[:nSubs]
	subSize := sc.subSize[:nSubs]
	subUni := sc.subUniform[:nSubs]
	for i := range subComm {
		subComm[i] = -1
		subUni[i] = true
	}
	for i, l := range ls.leaves {
		comm := st.LeafComm(int(l))
		if overlay {
			comm = sc.ovComm[l]
		}
		size := lay.LeafSizeInt[l]
		k := ag.leafSub[i]
		if subComm[k] == -1 {
			subComm[k] = int32(comm)
			subSize[k] = size
		} else if subComm[k] != int32(comm) || subSize[k] != size {
			subUni[k] = false
		}
	}

	// Prefill: every intra pair exactly; per block either the one
	// representative value (both subtrees uniform — every pair in the
	// block is bit-identical to it) or the block's exact pair list.
	blockVal := sc.blockVal[:nBlocks]
	blockNU := sc.blockNU[:nBlocks]
	for b := 0; b < nBlocks; b++ {
		if subUni[ag.blockA[b]] && subUni[ag.blockB[b]] {
			blockNU[b] = false
			rep := ag.blockRep[b]
			if overlay {
				blockVal[b] = sc.overlayHops(st, lay, ls.pairLi[rep], ls.pairLj[rep])
			} else {
				blockVal[b] = leafHops(st, lay, ls.pairLi[rep], ls.pairLj[rep])
			}
			continue
		}
		blockNU[b] = true
		for _, p := range ag.blockPairIDs[ag.blockPairOff[b]:ag.blockPairOff[b+1]] {
			if overlay {
				pv[p] = sc.overlayHops(st, lay, ls.pairLi[p], ls.pairLj[p])
			} else {
				pv[p] = leafHops(st, lay, ls.pairLi[p], ls.pairLj[p])
			}
		}
	}
	for _, p := range ag.intraPairs {
		if overlay {
			pv[p] = sc.overlayHops(st, lay, ls.pairLi[p], ls.pairLj[p])
		} else {
			pv[p] = leafHops(st, lay, ls.pairLi[p], ls.pairLj[p])
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
			for _, id := range ag.intraIDs[ag.intraOff[s]:ag.intraOff[s+1]] {
				if v := pv[id]; v > max {
					max = v
				}
			}
			for e := ag.stepEntOff[s]; e < ag.stepEntOff[s+1]; e++ {
				blk := ag.entryBlock[e]
				if blockNU[blk] {
					for _, id := range ag.crossIDs[ag.entryOff[e]:ag.entryOff[e+1]] {
						if v := pv[id]; v > max {
							max = v
						}
					}
				} else if v := blockVal[blk]; v > max {
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

// evalDistanceAgg is evalDistance through the aggregation stage. Distance
// is state-independent, so every block collapses unconditionally: the
// block value is the layout's lifted subtree-pair distance, bit-identical
// to the Dist of any of the block's leaf pairs.
//
//caws:noalloc
func (ls *leafSchedule) evalDistanceAgg() float64 {
	ag := ls.agg
	lay := ls.lay
	sc := evalScratchPool.Get().(*evalScratch)
	if cap(sc.pairVal) < len(ls.pairLi) {
		sc.pairVal = make([]float64, len(ls.pairLi))
	}
	pv := sc.pairVal[:len(ls.pairLi)]
	nBlocks := len(ag.blockA)
	if len(sc.subComm) < len(ag.subs) || len(sc.blockVal) < nBlocks {
		sc.ensureAgg(len(ag.subs), nBlocks) // grow path, cold once the pool is warm
	}
	blockVal := sc.blockVal[:nBlocks]
	for b := 0; b < nBlocks; b++ {
		blockVal[b] = lay.SubDist(ag.subs[ag.blockA[b]], ag.subs[ag.blockB[b]])
	}
	for _, p := range ag.intraPairs {
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
			for _, id := range ag.intraIDs[ag.intraOff[s]:ag.intraOff[s+1]] {
				if v := pv[id]; v > max {
					max = v
				}
			}
			for e := ag.stepEntOff[s]; e < ag.stepEntOff[s+1]; e++ {
				if v := blockVal[ag.entryBlock[e]]; v > max {
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
