// Package ioaware prototypes the paper's second future-work direction
// (§7): "I/O-aware scheduling algorithms that consider I/O patterns in
// addition to communication patterns". The model: I/O-intensive jobs
// stream to storage attached above the tree root, so every I/O flow
// traverses its node's leaf uplink chain and contends there with both
// other I/O jobs and inter-switch collective traffic.
//
// A Tracker decorates a cluster.State with per-leaf I/O-intensive node
// counts; the Selector extends the greedy communication ratio (Eq. 1) with
// an I/O share term so that I/O-heavy leaves repel both
// communication-intensive and I/O-intensive jobs.
package ioaware

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
)

// Tracker augments a cluster.State with I/O occupancy accounting. All
// allocations that should be visible to the I/O model must go through the
// Tracker (it delegates to the underlying state).
type Tracker struct {
	st     *cluster.State
	leafIO []int
	jobIO  map[cluster.JobID]bool
}

// NewTracker wraps a cluster state. The state must not already contain
// I/O-intensive allocations (they would be invisible to the tracker).
func NewTracker(st *cluster.State) *Tracker {
	return &Tracker{
		st:     st,
		leafIO: make([]int, st.Topology().NumLeaves()),
		jobIO:  make(map[cluster.JobID]bool),
	}
}

// State returns the underlying cluster state (read-only use recommended).
func (t *Tracker) State() *cluster.State { return t.st }

// Allocate places a job and records whether it is I/O-intensive.
func (t *Tracker) Allocate(job cluster.JobID, class cluster.Class, ioIntensive bool, nodes []int) error {
	if err := t.st.Allocate(job, class, nodes); err != nil {
		return err
	}
	if ioIntensive {
		for _, id := range nodes {
			t.leafIO[t.st.Topology().LeafOf(id)]++
		}
		t.jobIO[job] = true
	}
	return nil
}

// Release frees a job and clears its I/O accounting.
func (t *Tracker) Release(job cluster.JobID) error {
	var nodes []int
	if a := t.st.Allocation(job); a != nil && t.jobIO[job] {
		nodes = a.Nodes() // rendered from the masks: only for the jobs whose nodes are counted
	}
	if err := t.st.Release(job); err != nil {
		return err
	}
	if t.jobIO[job] {
		for _, id := range nodes {
			t.leafIO[t.st.Topology().LeafOf(id)]--
		}
		delete(t.jobIO, job)
	}
	return nil
}

// LeafIO returns the number of nodes on leaf l running I/O-intensive jobs.
func (t *Tracker) LeafIO(l int) int { return t.leafIO[l] }

// IOShare returns L_io / L_nodes for leaf l, by analogy with Eq. 2's
// communication share.
func (t *Tracker) IOShare(l int) float64 {
	return float64(t.leafIO[l]) / float64(t.st.Topology().LeafSize(l))
}

// IOCost estimates the I/O contention an allocation experiences: each node
// charges its leaf's uplink share 1 + IOShare + CommShare (I/O flows
// compete with both kinds of traffic on the uplinks).
func (t *Tracker) IOCost(nodes []int) float64 {
	total := 0.0
	for _, id := range nodes {
		l := t.st.Topology().LeafOf(id)
		total += 1 + t.IOShare(l) + t.st.CommShare(l)
	}
	return total
}

// CheckInvariants recomputes the I/O counters from the allocations.
func (t *Tracker) CheckInvariants() error {
	want := make([]int, len(t.leafIO))
	for _, a := range t.st.RunningAllocations() {
		if !t.jobIO[a.Job] {
			continue
		}
		for _, id := range a.Nodes() {
			want[t.st.Topology().LeafOf(id)]++
		}
	}
	for l := range want {
		if want[l] != t.leafIO[l] {
			return fmt.Errorf("ioaware: leaf %d io %d, recomputed %d", l, t.leafIO[l], want[l])
		}
	}
	return nil
}

// Selector chooses nodes with a combined communication + I/O ratio. It
// generalises the greedy algorithm (Algorithm 1): for contention-sensitive
// jobs (communication- or I/O-intensive) leaves are filled in increasing
// order of
//
//	Ratio(L) = CommRatio(L) + IOWeight · L_io/L_nodes
//
// and in decreasing order for pure compute jobs, preserving quiet leaves.
type Selector struct {
	Tracker *Tracker
	// IOWeight scales the I/O share against the Eq. 1 communication ratio
	// (default 1 when zero).
	IOWeight float64
}

// Select returns nodes for the request, in rank order. ioIntensive marks
// the submitting job's I/O class (orthogonal to req.Class).
func (s *Selector) Select(req core.Request, ioIntensive bool) ([]int, error) {
	st := s.Tracker.st
	weight := s.IOWeight
	if weight == 0 {
		weight = 1
	}
	if req.Nodes <= 0 {
		return nil, fmt.Errorf("ioaware: request for %d nodes", req.Nodes)
	}
	if req.Nodes > st.FreeTotal() {
		return nil, fmt.Errorf("%w: want %d, have %d", core.ErrInsufficientNodes,
			req.Nodes, st.FreeTotal())
	}
	type leafKey struct {
		leaf  int
		free  int
		ratio float64
	}
	topo := st.Topology()
	order := make([]leafKey, 0, topo.NumLeaves())
	for l := 0; l < topo.NumLeaves(); l++ {
		order = append(order, leafKey{
			leaf:  l,
			free:  st.LeafFree(l),
			ratio: st.CommRatio(l) + weight*s.Tracker.IOShare(l),
		})
	}
	sensitive := req.Class == cluster.CommIntensive || ioIntensive
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.ratio != b.ratio {
			if sensitive {
				return a.ratio < b.ratio
			}
			return a.ratio > b.ratio
		}
		if a.free != b.free {
			if sensitive {
				return a.free > b.free
			}
			return a.free < b.free
		}
		return a.leaf < b.leaf
	})
	out := make([]int, 0, req.Nodes)
	remaining := req.Nodes
	for _, lk := range order {
		if lk.free == 0 {
			continue
		}
		take := lk.free
		if take > remaining {
			take = remaining
		}
		for _, id := range topo.LeafNodes(lk.leaf) {
			if take == 0 {
				break
			}
			if st.NodeFree(id) {
				out = append(out, id)
				take--
				remaining--
			}
		}
		if remaining == 0 {
			return out, nil
		}
	}
	return nil, fmt.Errorf("ioaware: promised %d nodes, found %d", req.Nodes, len(out))
}
