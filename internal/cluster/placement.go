package cluster

import (
	"fmt"
	"slices"
)

// Placement is a job's prospective node list as every layer consumes it:
// the nodes in rank order (rank r runs on Nodes()[r]) and their rank→leaf
// run sequence — leaf<<32 | first rank for each maximal run of consecutive
// ranks on one leaf, in rank order, closed by the rank count. The paper's
// selectors fill leaf after leaf, so a placement of thousands of ranks is a
// few dozen runs, and State.AllocatePlacement, Release and costmodel's
// compile work per run where the bare list forced them to work per node.
//
// The nodes and runs never change. A selector-built placement (WithRuns)
// owns its runs and remembers the (state, generation) at which Validate
// last passed, so the layers that price and then commit it against an
// unchanged state scan it once between them. A placement wrapped around a
// caller's list (NewPlacement) has no runs of its own: each Reduce or
// Validate reduces it into the Scratch it is handed, where the runs stay
// readable until that Scratch's next use, and it never keeps a stamp.
type Placement struct {
	nodes []int
	runs  []uint64
	owned bool // runs belong to the placement, not to a Scratch
	st    *State
	gen   uint64
}

// NewPlacement wraps a rank-ordered node list.
func NewPlacement(nodes []int) Placement { return Placement{nodes: nodes} }

// WithRuns is NewPlacement for a caller that built the list leaf by leaf
// and recorded its runs on the way. Neither slice may change afterwards.
func WithRuns(nodes []int, runs []uint64) Placement {
	return Placement{nodes: nodes, runs: runs, owned: true}
}

// Nodes returns the rank-ordered node list, which must not be modified.
func (p *Placement) Nodes() []int { return p.nodes }

// Len returns the number of ranks.
func (p *Placement) Len() int { return len(p.nodes) }

// Runs returns the run sequence: a selector-built placement's own, else
// the one its latest Reduce or Validate left in that call's Scratch.
func (p *Placement) Runs() []uint64 { return p.runs }

// RunsKey is Runs in a form safe to keep: copied unless the placement
// owns it.
func (p *Placement) RunsKey() []uint64 {
	if p.owned {
		return p.runs
	}
	return slices.Clone(p.runs)
}

// Scratch is the working set one scan of a placement borrows: the
// duplicate-node mark and the buffer a wrapped list's runs are reduced
// into. The zero value is ready; a Scratch serves one goroutine at a time.
type Scratch struct {
	seen  []uint32 // node id -> epoch that last listed it
	epoch uint32
	runs  []uint64
}

// scan is the pass over a placement's nodes that needs no state. It returns
// the first rank whose node is out of range or listed before, or the rank
// count. A wrapped list is reduced to its runs on the way; nodeLeaf is only
// read for that.
func (p *Placement) scan(nodeLeaf []int32, n int, sc *Scratch) int {
	if len(sc.seen) < n {
		sc.seen = make([]uint32, n)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide
		clear(sc.seen)
		sc.epoch = 1
	}
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
	nodeJob, nodeDown := s.nodeJob, s.nodeDown
	for r, id := range nodes {
		if nodeJob[id] >= 0 || nodeDown[id] {
			return r
		}
	}
	return len(nodes)
}

// Reduce makes Runs available without consulting any state. It reports
// false for a wrapped list that repeats a node id or names one outside the
// layout, which has no run sequence.
func (p *Placement) Reduce(lay *Layout, sc *Scratch) bool {
	return p.owned || p.scan(lay.NodeLeaf, len(lay.NodeLeaf), sc) == len(p.nodes)
}

// Validate is the one check that job may be allocated on the placement's
// nodes in st: the job ID is usable and every node is in range, listed
// once, free and in service — reported in that order, node by node. It only
// reads st (the duplicate mark is sc's), so concurrent validations over one
// state are safe with a Scratch each. The job checks run on every call; the
// scan is skipped when the placement last passed it at st's current
// generation.
func (p *Placement) Validate(st *State, job JobID, sc *Scratch) error {
	if job < 0 {
		return fmt.Errorf("cluster: job IDs must be non-negative, got %d", job)
	}
	if len(p.nodes) == 0 {
		return fmt.Errorf("cluster: job %d: empty allocation", job)
	}
	if _, dup := st.allocs[job]; dup {
		return fmt.Errorf("cluster: job %d already allocated", job)
	}
	if p.owned && p.st == st && p.gen == st.gen {
		return nil
	}
	var nodeLeaf []int32
	if !p.owned {
		nodeLeaf = LayoutOf(st.topo).NodeLeaf
	}
	// Per node the order is range, duplicate, busy, down, so a busy or down
	// node only counts ahead of the rank the stateless scan stopped at.
	at := p.scan(nodeLeaf, len(st.nodeJob), sc)
	r := st.firstUnfree(p.nodes[:at])
	if r == len(p.nodes) {
		if p.owned {
			p.st, p.gen = st, st.gen
		}
		return nil
	}
	id := p.nodes[r]
	switch {
	case r == at && (id < 0 || id >= len(st.nodeJob)):
		return fmt.Errorf("cluster: job %d: node %d out of range", job, id)
	case r == at:
		return fmt.Errorf("cluster: job %d: node %d listed twice", job, id)
	case st.nodeJob[id] >= 0:
		return fmt.Errorf("cluster: job %d: node %d busy (held by job %d)", job, id, st.nodeJob[id])
	default:
		return fmt.Errorf("cluster: job %d: node %d is %s: %w", job, id, st.downWord(id), ErrNodeUnavailable)
	}
}
