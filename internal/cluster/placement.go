package cluster

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/topology"
)

// ErrStalePlacement rejects an unlisted free-rank placement once the state it
// was selected on has moved: its runs are never read against another
// generation. It wraps ErrNodeUnavailable, the "select again" condition.
var ErrStalePlacement = fmt.Errorf("placement selected at another generation: %w", ErrNodeUnavailable)

// ErrReusedPlacement rejects a placement whose RunStore has since held
// another one: its runs are gone, whatever the generation. It is a caller's
// bug, not a "select again" condition, so it wraps nothing.
var ErrReusedPlacement = errors.New("placement's run store was reused by a later selection")

// Placement is a job's prospective nodes as every layer consumes them: a
// rank→leaf run sequence — leaf<<32 | first rank for each maximal run of
// consecutive ranks on one leaf, in rank order, closed by the rank count —
// and, once somebody needs node IDs, the nodes in rank order (rank r runs
// on Nodes()[r]). The paper's selectors choose how many nodes to take from
// which leaf, never which ones, so a placement of thousands of ranks is a
// few dozen runs, and validation, costmodel's pricing and the counters'
// deltas work per run.
//
// A selector-built placement (FreeRankRuns) is its runs and nothing else:
// run i is "the allocatable nodes of its leaf, in ascending ID, after the
// first skip[i]", which means something only at the (state, generation) it
// was selected on. There it is validated in O(runs), remembers that it
// passed (pricing and then committing it check it once), is listed lazily
// by Nodes and committed as masks picked out of the leaves' free bits. Once
// listed it is also an owned list: at a later generation it gets the
// per-node scan and a stamp of its own; unlisted, it is stale there
// (ErrStalePlacement). A placement wrapped around a caller's list
// (NewPlacement) owns no runs: each Reduce or Validate reduces it into the
// Scratch it is handed, where the runs stay readable until that Scratch's
// next use, and it never keeps a stamp. A placement kept in a RunStore
// lives until the store's next Place.
type Placement struct {
	nodes []int
	runs  []uint64
	skip  []uint64 // free-rank form: allocatable nodes of run i's leaf that precede it, as of (st, gen)
	owned bool     // runs belong to the placement, not to a Scratch
	valid bool     // Validate passed at (st, gen)
	st    *State
	gen   uint64
	store *RunStore // where runs and skip live, if in a store
	lease uint64    // the store's lease they were written under
}

// NewPlacement wraps a rank-ordered node list.
func NewPlacement(nodes []int) Placement { return Placement{nodes: nodes} }

// FreeRankRuns is the placement a selector builds on st leaf by leaf: run i
// takes its ranks' worth of its leaf's allocatable nodes after the first
// skip[i], runs on one leaf in increasing free-rank order. Neither slice
// may change afterwards.
func FreeRankRuns(st *State, runs, skip []uint64) Placement {
	return Placement{runs: runs, skip: skip, owned: true, st: st, gen: st.gen}
}

// RunStore is reusable storage for free-rank placements: Place copies a
// selection's runs in, so a warm store allocates nothing. The placement it
// returns reads them there until the store's next Place; from then on it
// has no ranks, and validating, committing or pricing it fails with
// ErrReusedPlacement — the generation alone cannot tell, since a store may
// be reused on an unchanged state. The zero value is ready; a store serves
// one goroutine at a time.
type RunStore struct {
	words []uint64
	lease uint64
}

// Place is FreeRankRuns over copies of runs and skip kept in the store.
//
//caws:noalloc
func (rs *RunStore) Place(st *State, runs, skip []uint64) Placement {
	rs.lease++
	r, n := len(runs), len(runs)+len(skip)
	if cap(rs.words) < n {
		rs.words = make([]uint64, n)
	}
	w := rs.words[:n]
	copy(w, runs)
	copy(w[r:], skip)
	p := FreeRankRuns(st, w[:r:r], w[r:])
	p.store, p.lease = rs, rs.lease
	return p
}

// reused reports whether the store p lives in has since held another
// placement.
func (p *Placement) reused() bool { return p.store != nil && p.store.lease != p.lease }

// Nodes returns the rank-ordered node list, which must not be modified. A
// free-rank placement lists itself on the first call (a read of the state,
// a write of p), which only the generation it was selected on can answer:
// afterwards the result is nil.
func (p *Placement) Nodes() []int {
	if p.owned && p.nodes == nil && p.Len() > 0 && p.st != nil && p.gen == p.st.gen && p.fit(p.st, 0) == nil {
		p.nodes = make([]int, 0, p.Len())
		for i, run := range p.runs[:len(p.skip)] {
			p.nodes = p.st.appendRanks(p.nodes, int(run>>32), int(p.skip[i]), int(uint32(p.runs[i+1])-uint32(run)))
		}
	}
	return p.nodes
}

// Len returns the number of ranks: 0 for an unlisted placement whose store
// was reused.
func (p *Placement) Len() int {
	if p.owned && p.nodes == nil && len(p.runs) > 0 && !p.reused() {
		return int(uint32(p.runs[len(p.runs)-1]))
	}
	return len(p.nodes)
}

// Runs returns the run sequence: a selector-built placement's own, else
// the one its latest Reduce or Validate left in that call's Scratch.
func (p *Placement) Runs() []uint64 { return p.runs }

// SameNodes reports whether p and q put the same node at every rank. Unlisted
// free-rank placements of one (state, generation) are compared by their
// runs, which are maximal and so determined by the nodes; others by list. A
// placement whose store was reused is the same as none.
func (p *Placement) SameNodes(q *Placement) bool {
	if p.reused() || q.reused() {
		return false
	}
	if p.owned && q.owned && p.nodes == nil && q.nodes == nil && p.st == q.st && p.gen == q.gen {
		return slices.Equal(p.runs, q.runs) && slices.Equal(p.skip, q.skip)
	}
	pn := p.Nodes()
	return len(pn) == p.Len() && slices.Equal(pn, q.Nodes())
}

// Scratch is the working set one check of a placement borrows: the
// duplicate-node mark, the per-leaf free-rank high-water mark and the
// buffer a wrapped list's runs are reduced into. The zero value is ready; a
// Scratch serves one goroutine at a time.
type Scratch struct {
	seen  []uint32 // node id -> epoch that last listed it
	high  []uint64 // leaf -> epoch<<32 | free ranks the runs checked so far take up to
	epoch uint32
	runs  []uint64
}

// begin opens a new epoch over n nodes and l leaves (either may be 0).
func (sc *Scratch) begin(n, l int) {
	if len(sc.seen) < n {
		sc.seen = make([]uint32, n)
	}
	if len(sc.high) < l {
		sc.high = make([]uint64, l)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide
		clear(sc.seen)
		clear(sc.high)
		sc.epoch = 1
	}
}

// scan is the pass over a placement's nodes that needs no state. It returns
// the first rank whose node is out of range or listed before, or the rank
// count. A wrapped list is reduced to its runs on the way; nodeLeaf is only
// read for that.
func (p *Placement) scan(nodeLeaf []int32, n int, sc *Scratch) int {
	sc.begin(n, 0)
	seen, epoch, runs := sc.seen, sc.epoch, sc.runs[:0] // locals: no reloads after each store
	cur := int32(-1)
	for r, id := range p.nodes {
		if uint(id) >= uint(n) || seen[id] == epoch {
			return r
		}
		seen[id] = epoch
		if !p.owned {
			if l := nodeLeaf[id]; l != cur {
				cur = l
				runs = append(runs, uint64(l)<<32|uint64(r))
			}
		}
	}
	if !p.owned {
		sc.runs = append(runs, uint64(len(p.nodes))) // closes the last run
		p.runs = sc.runs
	}
	return len(p.nodes)
}

// firstUnfree returns the first rank of nodes (all in range) whose node is
// busy or out of service, or len(nodes).
func (s *State) firstUnfree(nodes []int) int {
	bit, busy, down := s.lay.NodeBit, s.busyBits, s.downBits
	for r, id := range nodes {
		if b := bit[id]; (busy[b>>6]|down[b>>6])>>(b&63)&1 != 0 {
			return r
		}
	}
	return len(nodes)
}

// Reduce makes Runs available without consulting any state. It reports
// false for a wrapped list that repeats a node id or names one outside the
// layout, which has no run sequence.
func (p *Placement) Reduce(lay *topology.Layout, sc *Scratch) bool {
	return p.owned || p.scan(lay.NodeLeaf, len(lay.NodeLeaf), sc) == len(p.nodes)
}

// fit checks of a free-rank placement what needs no memory of earlier runs:
// ranks start at 0 and strictly increase up to a bare closing count, every
// leaf is in range, every run lies within its leaf's allocatable nodes.
func (p *Placement) fit(st *State, job JobID) error {
	runs, skip := p.runs, p.skip
	if len(skip) != len(runs)-1 || uint32(runs[0]) != 0 || runs[len(skip)]>>32 != 0 {
		return fmt.Errorf("cluster: job %d: malformed run sequence %x with %d free ranks", job, runs, len(skip))
	}
	for i, from := range skip {
		l, first, end := int(runs[i]>>32), uint32(runs[i]), uint32(runs[i+1])
		if end <= first || l >= st.topo.NumLeaves() {
			return fmt.Errorf("cluster: job %d: run %d (ranks %d to %d on leaf %d) is empty, out of order or on no leaf", job, i, first, end, l)
		}
		if free := uint64(st.LeafFree(l)); from > free || uint64(end-first) > free-from {
			return fmt.Errorf("cluster: job %d: run %d takes %d allocatable nodes of leaf %d after its first %d, of %d", job, i, end-first, l, from, free)
		}
	}
	return nil
}

// checkRuns is Validate's O(runs) form for a free-rank placement at the
// generation it is bound to: the runs fit, and those on one leaf come in
// increasing, disjoint free-rank intervals. LeafFree(l) is the number of
// nodes of l that are free and in service (CheckInvariants), and distinct
// free ranks of a leaf are distinct nodes of it, so this implies what the
// node scan establishes of the listed nodes: in range, listed once, free,
// in service.
func (p *Placement) checkRuns(st *State, job JobID, sc *Scratch) error {
	if err := p.fit(st, job); err != nil {
		return err
	}
	sc.begin(0, st.topo.NumLeaves())
	high, epoch := sc.high, uint64(sc.epoch)
	for i, from := range p.skip {
		l, k := int(p.runs[i]>>32), uint32(p.runs[i+1])-uint32(p.runs[i])
		if h := high[l]; h>>32 == epoch && from < uint64(uint32(h)) {
			return fmt.Errorf("cluster: job %d: run %d revisits leaf %d at free rank %d, below the %d already taken", job, i, l, from, uint32(h))
		}
		high[l] = epoch<<32 | (from + uint64(k))
	}
	p.valid = true
	return nil
}

// Validate is the one check that job may be allocated on the placement's
// nodes in st: the job ID is usable and every node is in range, listed
// once, free and in service. It only reads st (the marks are sc's), so
// concurrent validations over one state are safe with a Scratch each. The
// job checks run on every call; nothing more for a placement that last
// passed at st's current generation. Free-rank runs still at their own
// generation are checked as runs, a list node by node (faults in per-node
// order), and unlisted runs of another generation are stale. A placement
// whose RunStore was reused fails before anything else, listed or not.
func (p *Placement) Validate(st *State, job JobID, sc *Scratch) error {
	if p.reused() {
		return fmt.Errorf("cluster: job %d: %w", job, ErrReusedPlacement)
	}
	if job < 0 {
		return fmt.Errorf("cluster: job IDs must be non-negative, got %d", job)
	}
	if p.Len() == 0 {
		return fmt.Errorf("cluster: job %d: empty allocation", job)
	}
	if _, dup := st.allocs[job]; dup {
		return fmt.Errorf("cluster: job %d already allocated", job)
	}
	switch current := p.owned && p.st == st && p.gen == st.gen; {
	case current && p.valid:
		return nil
	case current && p.skip != nil:
		return p.checkRuns(st, job, sc)
	case p.owned && p.nodes == nil:
		return fmt.Errorf("cluster: job %d: %w", job, ErrStalePlacement)
	}
	// Per node the order is range, duplicate, busy, down, so a busy or down
	// node only counts ahead of the rank the stateless scan stopped at.
	at := p.scan(st.lay.NodeLeaf, st.topo.NumNodes(), sc)
	r := st.firstUnfree(p.nodes[:at])
	if r == len(p.nodes) {
		if p.owned { // the free ranks, if any, were another generation's
			p.st, p.gen, p.valid, p.skip = st, st.gen, true, nil
		}
		return nil
	}
	id := p.nodes[r]
	switch {
	case r == at && (id < 0 || id >= st.topo.NumNodes()):
		return fmt.Errorf("cluster: job %d: node %d out of range", job, id)
	case r == at:
		return fmt.Errorf("cluster: job %d: node %d listed twice", job, id)
	case st.isSet(st.busyBits, id):
		return fmt.Errorf("cluster: job %d: node %d busy (held by job %d)", job, id, st.NodeJob(id))
	default:
		return fmt.Errorf("cluster: job %d: node %d is %s: %w", job, id, st.downWord(id), ErrNodeUnavailable)
	}
}
