// Package search implements a deterministic, seeded local-search /
// simulated-annealing refinement pass over candidate node allocations
// (ROADMAP "search-based allocator family"; cf. the neural-SA line of
// work, arXiv 2302.03517). It starts from a seed placement — in practice
// the adaptive selector's pick — and explores swap/shift moves over the
// candidate node set, pricing every move incrementally through the same
// read-only overlay semantics as costmodel.CandidateCost instead of a
// full re-cost.
//
// The package deliberately sits below internal/core (which wires it into
// the Algorithm enum) and above internal/cluster / internal/costmodel; it
// never mutates cluster state and it threads its PRNG explicitly, so a
// given (state, seed placement, Config) triple always returns the same
// nodes regardless of caller concurrency.
package search

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
)

// Engine step kinds, mirroring the costmodel leaf-schedule compiler: a
// compute step scans its pair list, an empty step contributes zero, and a
// repeat step (same Pairs slice as the previous compute step) is charged
// that step's memoised maximum.
const (
	stepCompute uint8 = iota
	stepEmpty
	stepRepeat
)

// Engine prices swap/shift moves over one candidate allocation as exact
// deltas of Eq. 6. It compiles the collective schedule once into
// rank-pair occurrence lists, keeps the per-occurrence Hops values and
// per-step maxima cached, and on each move re-evaluates only the
// occurrences whose endpoint leaves changed state — O(occurrences on the
// two touched leaves) fresh Eq. 5 evaluations instead of the O(T²)
// distinct leaf pairs a from-scratch costing walks.
//
// Cost() is bit-identical to costmodel.CandidateCost on the engine's
// current node list in every reachable state: the per-pair value uses the
// same float expressions in the same association order as the costmodel
// overlay (and the subtree-aggregated kernel is itself bit-identical to
// the flat one), per-step maxima agree because a max over a multiset
// equals the max over its support, and the total is always re-summed in
// step order rather than nudged by deltas, so no float reassociation can
// creep in. The fuzz target FuzzAnnealMoves pins this equivalence on
// fuzzer-chosen move sequences.
//
// An Engine is a pure reader of its cluster.State and must not outlive
// the state generation it was built against (any Allocate/Release
// invalidates its cached live counters).
type Engine struct {
	st      *cluster.State
	lay     *cluster.Layout
	overlay bool // comm-intensive candidate: overlay its own histogram

	nodes    []int   // rank -> node id
	rankLeaf []int32 // rank -> leaf index
	inCand   map[int]int32

	// Compiled schedule: kind/uniq per original step (repeat steps share
	// the unique id of the compute step whose Pairs slice they alias),
	// occA/occB the flattened rank pairs of the unique steps
	// (uoff[u]:uoff[u+1] is unique step u's occurrence range), and a CSR
	// rank -> occurrence index so moves can find the values they dirty.
	nSteps  int
	kind    []uint8
	uniq    []int32
	occA    []int32
	occB    []int32
	occStep []int32
	uoff    []int32
	rocOff  []int32
	rocIdx  []int32

	// Dynamic pricing state.
	val     []float64 // occurrence -> current Hops value
	stepMax []float64 // unique step -> max over its occurrences
	total   float64

	// Per-leaf overlay state: candidate node counts, effective comm
	// counters/shares for touched leaves, and an intrusive doubly linked
	// list of the ranks currently hosted on each leaf (leafHead/-1
	// terminated) so a shift can enumerate exactly the ranks whose pair
	// values its two leaves invalidate.
	cnt      []int32
	ovComm   []int
	ovShare  []float64
	leafHead []int32
	rankNext []int32
	rankPrev []int32

	// Dirty-step bookkeeping for the current move.
	dirtyStamp []uint32
	dirtyList  []int32
	stamp      uint32
}

// NewEngine compiles an engine for the candidate (job, class, nodes,
// pattern) against st. The candidate must be allocatable exactly as
// costmodel.CandidateCost requires: distinct, in-range, free nodes and a
// job that is not already running.
func NewEngine(st *cluster.State, job cluster.JobID, class cluster.Class,
	nodes []int, p collective.Pattern) (*Engine, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("search: empty candidate allocation")
	}
	if job < 0 {
		return nil, fmt.Errorf("search: job IDs must be non-negative, got %d", job)
	}
	if st.Allocation(job) != nil {
		return nil, fmt.Errorf("search: job %d already allocated", job)
	}
	steps, err := costmodel.ScheduleFor(p, len(nodes))
	if err != nil {
		return nil, err
	}
	lay := cluster.LayoutOf(st.Topology())
	e := &Engine{
		st:      st,
		lay:     lay,
		overlay: class == cluster.CommIntensive,
		nodes:   append([]int(nil), nodes...),
		inCand:  make(map[int]int32, len(nodes)),
		nSteps:  len(steps),
	}
	n := st.Topology().NumNodes()
	for r, id := range e.nodes {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("search: job %d: node %d out of range", job, id)
		}
		if !st.NodeFree(id) {
			return nil, fmt.Errorf("search: job %d: node %d not free", job, id)
		}
		if _, dup := e.inCand[id]; dup {
			return nil, fmt.Errorf("search: job %d: node %d listed twice", job, id)
		}
		e.inCand[id] = int32(r)
	}
	if err := e.compile(steps); err != nil {
		return nil, err
	}
	e.initLeaves()
	e.initValues()
	return e, nil
}

// compile flattens the schedule into unique-step occurrence lists and the
// rank -> occurrence CSR, with the same empty/repeat classification and
// the same same-node pair skip as the costmodel compiler (candidate nodes
// are distinct, so a same-node pair is exactly a same-rank pair).
func (e *Engine) compile(steps []collective.Step) error {
	p := len(e.nodes)
	e.kind = make([]uint8, len(steps))
	e.uniq = make([]int32, len(steps))
	var prevPairs *collective.Pair
	prevUniq := int32(-1)
	for s := range steps {
		step := &steps[s]
		if len(step.Pairs) == 0 {
			e.kind[s] = stepEmpty
			continue
		}
		if prevPairs == &step.Pairs[0] {
			e.kind[s] = stepRepeat
			e.uniq[s] = prevUniq
			continue
		}
		prevPairs = &step.Pairs[0]
		u := int32(len(e.uoff))
		e.uoff = append(e.uoff, int32(len(e.occA)))
		for _, pr := range step.Pairs {
			if pr.A < 0 || pr.A >= p || pr.B < 0 || pr.B >= p {
				return fmt.Errorf("search: step %d pair (%d,%d) out of range for %d nodes",
					s, pr.A, pr.B, p)
			}
			if pr.A == pr.B {
				continue // Hops(i,i) = 0, never the max
			}
			e.occA = append(e.occA, int32(pr.A))
			e.occB = append(e.occB, int32(pr.B))
		}
		e.kind[s] = stepCompute
		e.uniq[s] = u
		prevUniq = u
	}
	e.uoff = append(e.uoff, int32(len(e.occA)))
	e.occStep = make([]int32, len(e.occA))
	for u := 0; u < len(e.uoff)-1; u++ {
		for i := e.uoff[u]; i < e.uoff[u+1]; i++ {
			e.occStep[i] = int32(u)
		}
	}

	counts := make([]int32, p+1)
	for i := range e.occA {
		counts[e.occA[i]]++
		counts[e.occB[i]]++
	}
	e.rocOff = make([]int32, p+1)
	for r := 0; r < p; r++ {
		e.rocOff[r+1] = e.rocOff[r] + counts[r]
	}
	e.rocIdx = make([]int32, e.rocOff[p])
	fill := make([]int32, p)
	copy(fill, e.rocOff[:p])
	for i := range e.occA {
		a, b := e.occA[i], e.occB[i]
		e.rocIdx[fill[a]] = int32(i)
		fill[a]++
		e.rocIdx[fill[b]] = int32(i)
		fill[b]++
	}
	e.val = make([]float64, len(e.occA))
	e.stepMax = make([]float64, len(e.uoff)-1)
	e.dirtyStamp = make([]uint32, len(e.uoff)-1)
	return nil
}

// initLeaves builds the per-leaf candidate counts, overlay counters and
// rank membership lists.
func (e *Engine) initLeaves() {
	l := e.lay.L
	e.cnt = make([]int32, l)
	e.ovComm = make([]int, l)
	e.ovShare = make([]float64, l)
	e.leafHead = make([]int32, l)
	for i := range e.leafHead {
		e.leafHead[i] = -1
	}
	e.rankNext = make([]int32, len(e.nodes))
	e.rankPrev = make([]int32, len(e.nodes))
	e.rankLeaf = make([]int32, len(e.nodes))
	for r, id := range e.nodes {
		leaf := e.lay.NodeLeaf[id]
		e.rankLeaf[r] = leaf
		e.cnt[leaf]++
		e.linkRank(int32(r), leaf)
	}
	for r := range e.nodes {
		e.refreshLeaf(e.rankLeaf[r])
	}
}

// initValues prices every occurrence from scratch and folds the per-step
// maxima into the total.
func (e *Engine) initValues() {
	for i := range e.val {
		e.val[i] = e.pairHops(e.rankLeaf[e.occA[i]], e.rankLeaf[e.occB[i]])
	}
	for u := 0; u < len(e.stepMax); u++ {
		e.rescanStep(int32(u))
	}
	e.recomputeTotal()
}

// linkRank prepends rank r to leaf's membership list.
func (e *Engine) linkRank(r, leaf int32) {
	head := e.leafHead[leaf]
	e.rankPrev[r] = -1
	e.rankNext[r] = head
	if head >= 0 {
		e.rankPrev[head] = r
	}
	e.leafHead[leaf] = r
}

// unlinkRank removes rank r from leaf's membership list.
func (e *Engine) unlinkRank(r, leaf int32) {
	prev, next := e.rankPrev[r], e.rankNext[r]
	if prev >= 0 {
		e.rankNext[prev] = next
	} else {
		e.leafHead[leaf] = next
	}
	if next >= 0 {
		e.rankPrev[next] = prev
	}
}

// refreshLeaf recomputes the overlay comm counter and share for a leaf
// from the live state plus the candidate's count there — the same sum and
// the same division costmodel's beginOverlay (and State.updateShare after
// a real Allocate) perform, so overlay reads stay bit-identical.
func (e *Engine) refreshLeaf(leaf int32) {
	comm := e.st.LeafComm(int(leaf)) + int(e.cnt[leaf])
	e.ovComm[leaf] = comm
	e.ovShare[leaf] = float64(comm) / e.lay.LeafSize[leaf]
}

// pairHops is Eq. 5 between two leaves with the candidate overlay applied
// to whichever endpoints currently host candidate nodes — expression for
// expression the costmodel's overlayHops (leaves without candidate nodes
// read the live counters, exactly like leaves outside the histogram).
func (e *Engine) pairHops(li, lj int32) float64 {
	commI, shareI := e.st.LeafComm(int(li)), e.st.CommShare(int(li))
	if e.overlay && e.cnt[li] > 0 {
		commI, shareI = e.ovComm[li], e.ovShare[li]
	}
	d := e.lay.Dist(li, lj)
	if li == lj {
		return d * (1 + shareI)
	}
	commJ, shareJ := e.st.LeafComm(int(lj)), e.st.CommShare(int(lj))
	if e.overlay && e.cnt[lj] > 0 {
		commJ, shareJ = e.ovComm[lj], e.ovShare[lj]
	}
	shared := 0.5 * float64(commI+commJ) / e.lay.PairSize(li, lj)
	return d * (1 + (shareI + shareJ + shared))
}

// Len returns the number of ranks.
func (e *Engine) Len() int { return len(e.nodes) }

// Node returns the node currently assigned to rank r.
func (e *Engine) Node(r int) int { return e.nodes[r] }

// Nodes returns a copy of the current rank -> node assignment.
func (e *Engine) Nodes() []int { return append([]int(nil), e.nodes...) }

// CopyNodes copies the current assignment into dst (len must match).
func (e *Engine) CopyNodes(dst []int) { copy(dst, e.nodes) }

// Contains reports whether node id is part of the current candidate.
func (e *Engine) Contains(id int) bool {
	_, ok := e.inCand[id]
	return ok
}

// Cost returns Eq. 6 for the current assignment, bit-identical to
// costmodel.CandidateCost(st, job, class, e.Nodes(), pattern).
func (e *Engine) Cost() float64 { return e.total }

// Shift moves rank r onto a free node outside the candidate. Shifting
// back to the previous node is an exact inverse (values are recomputed
// from the same inputs, so the same bits come back).
func (e *Engine) Shift(r, node int) error {
	if r < 0 || r >= len(e.nodes) {
		return fmt.Errorf("search: shift rank %d out of range", r)
	}
	if node < 0 || node >= len(e.lay.NodeLeaf) {
		return fmt.Errorf("search: shift target node %d out of range", node)
	}
	if !e.st.NodeFree(node) {
		return fmt.Errorf("search: shift target node %d not free", node)
	}
	if _, ok := e.inCand[node]; ok {
		return fmt.Errorf("search: shift target node %d already in candidate", node)
	}
	old := e.nodes[r]
	la, lb := e.rankLeaf[r], e.lay.NodeLeaf[node]
	e.nodes[r] = node
	delete(e.inCand, old)
	e.inCand[node] = int32(r)
	if la == lb {
		// Same leaf: the histogram, every leaf pair and hence the cost are
		// unchanged — nothing to re-price.
		return nil
	}
	rr := int32(r)
	e.unlinkRank(rr, la)
	e.cnt[la]--
	e.refreshLeaf(la)
	e.rankLeaf[r] = lb
	e.linkRank(rr, lb)
	e.cnt[lb]++
	e.refreshLeaf(lb)
	e.beginMove()
	e.repriceLeaf(la)
	e.repriceLeaf(lb)
	e.finishMove()
	return nil
}

// Swap exchanges the nodes of two ranks. The leaf histogram (and thus
// every leaf's counters) is unchanged; only the occurrences touching the
// two ranks can change value. Swapping again is an exact inverse.
func (e *Engine) Swap(r1, r2 int) error {
	if r1 < 0 || r1 >= len(e.nodes) || r2 < 0 || r2 >= len(e.nodes) {
		return fmt.Errorf("search: swap ranks (%d,%d) out of range", r1, r2)
	}
	if r1 == r2 {
		return nil
	}
	n1, n2 := e.nodes[r1], e.nodes[r2]
	l1, l2 := e.rankLeaf[r1], e.rankLeaf[r2]
	e.nodes[r1], e.nodes[r2] = n2, n1
	e.inCand[n1], e.inCand[n2] = int32(r2), int32(r1)
	if l1 == l2 {
		return nil // same leaf pair values everywhere
	}
	a, b := int32(r1), int32(r2)
	e.unlinkRank(a, l1)
	e.unlinkRank(b, l2)
	e.rankLeaf[r1], e.rankLeaf[r2] = l2, l1
	e.linkRank(a, l2)
	e.linkRank(b, l1)
	e.beginMove()
	e.repriceRank(a)
	e.repriceRank(b)
	e.finishMove()
	return nil
}

// beginMove opens a dirty-step epoch.
func (e *Engine) beginMove() {
	e.stamp++
	if e.stamp == 0 { // wrapped: stale stamps could collide
		clear(e.dirtyStamp)
		e.stamp = 1
	}
	e.dirtyList = e.dirtyList[:0]
}

// repriceLeaf re-prices every occurrence with an endpoint rank currently
// hosted on leaf (the ranks whose pair values the leaf's counter change
// invalidates).
func (e *Engine) repriceLeaf(leaf int32) {
	for r := e.leafHead[leaf]; r >= 0; r = e.rankNext[r] {
		e.repriceRank(r)
	}
}

// repriceRank recomputes the values of rank r's occurrences and marks
// their steps dirty. Recomputing an occurrence twice within a move is
// harmless: the value is a pure function of the post-move leaf state.
func (e *Engine) repriceRank(r int32) {
	for _, o := range e.rocIdx[e.rocOff[r]:e.rocOff[r+1]] {
		e.val[o] = e.pairHops(e.rankLeaf[e.occA[o]], e.rankLeaf[e.occB[o]])
		u := e.occStep[o]
		if e.dirtyStamp[u] != e.stamp {
			e.dirtyStamp[u] = e.stamp
			e.dirtyList = append(e.dirtyList, u)
		}
	}
}

// finishMove rescans the dirty steps' maxima and re-sums the total.
func (e *Engine) finishMove() {
	for _, u := range e.dirtyList {
		e.rescanStep(u)
	}
	e.recomputeTotal()
}

// rescanStep recomputes one unique step's max over its occurrences. The
// costmodel kernel takes the max over the step's distinct leaf pairs; the
// max over the rank-pair multiset equals the max over that support, so
// the two are bit-identical.
func (e *Engine) rescanStep(u int32) {
	var max float64
	for _, v := range e.val[e.uoff[u]:e.uoff[u+1]] {
		if v > max {
			max = v
		}
	}
	e.stepMax[u] = max
}

// recomputeTotal re-sums the per-step maxima in original step order —
// never incrementally, so the addition sequence matches the costmodel
// eval loop exactly (empty steps contribute nothing, repeat steps re-add
// their compute step's memoised max).
func (e *Engine) recomputeTotal() {
	total := 0.0
	for s := 0; s < e.nSteps; s++ {
		if e.kind[s] == stepEmpty {
			continue
		}
		total += e.stepMax[e.uniq[s]]
	}
	e.total = total
}
