// Package cluster tracks which nodes of a topology are allocated to which
// jobs and maintains the per-leaf-switch counters the paper's algorithms
// consume: L_nodes (leaf size), L_busy (allocated nodes) and L_comm (nodes
// running communication-intensive jobs). It also computes the
// communication ratio of Eq. 1, the quantity the greedy algorithm sorts
// leaf switches by.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/topology"
)

// ErrNodeUnavailable is wrapped into Allocate errors caused by a drained
// or failed node in the requested set. Callers racing allocation against
// node-state changes (the daemon) match it with errors.Is and retry the
// selection instead of treating the condition as fatal.
var ErrNodeUnavailable = errors.New("node unavailable")

// JobID identifies a job within a simulation run.
type JobID int64

// Class tags a job as communication- or compute-intensive, the single extra
// job attribute the paper's scheduler consumes (§4).
type Class uint8

const (
	// ComputeIntensive jobs are insensitive to contention and fragmentation.
	ComputeIntensive Class = iota
	// CommIntensive jobs run contention-sensitive MPI collectives.
	CommIntensive
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ComputeIntensive:
		return "compute"
	case CommIntensive:
		return "comm"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Allocation records the nodes held by a running job.
type Allocation struct {
	Job   JobID
	Class Class
	Nodes []int // node IDs, ascending
}

// State is the mutable allocation state of a cluster. It is not safe for
// concurrent use; the simulator is single-threaded per run (experiment
// harnesses run independent States in parallel).
type State struct {
	topo *topology.Topology
	// reference, fixed at construction, routes SwitchFree and CommShare
	// through their *Slow recomputations, and costmodel and the selectors
	// through their reference loops, for every evaluation over this state.
	// The differential harness runs the same trace on a state of each kind.
	reference bool

	nodeJob  []JobID // per node: owning job, or -1 when free
	nodeDown []bool  // per node: out of service (ineligible for new allocations)
	// nodeFailed distinguishes hard failures from graceful drains among the
	// down nodes: a failed node's job was killed and requeued, a drained
	// node's job ran to completion. failed ⇒ down always holds.
	nodeFailed []bool
	leafBusy   []int // per leaf: allocated node count (L_busy)
	leafComm   []int // per leaf: nodes running comm-intensive jobs (L_comm)
	// leafShare[l] is L_comm/L_nodes for leaf l — the per-switch contention
	// term of Eq. 2/3 — maintained incrementally whenever leafComm changes,
	// so cost evaluation reads a float instead of dividing per pair. Each
	// update stores the result of the same division CommShareSlow performs,
	// so the fast read is bit-identical to the reference recompute.
	leafShare []float64
	// leafUnavail counts free-but-drained nodes per leaf; they are excluded
	// from LeafFree and FreeTotal.
	leafUnavail []int
	free        int
	// down and failed count the nodes marked nodeDown and nodeFailed.
	down, failed int

	// switchFree[sw.Index] is the number of allocatable nodes in the
	// subtree of sw — kept equal to the sum of LeafFree over sw's
	// descendant leaves by O(tree-height) updates on every allocate,
	// release, drain and resume, so SwitchFree and findLowestSwitch read
	// it in O(1) instead of rescanning the tree.
	switchFree []int

	// gen counts state mutations (allocate/release/drain/resume). A
	// placement's validation stamp and its free-rank runs are bound to
	// (state, generation) and go stale when either changes.
	gen uint64

	// scratch serves the validations Allocate itself runs, and runOrder its
	// ordering of a placement's runs by first node ID. Both are working
	// memory of a mutator, never read by the pure-read paths.
	scratch  Scratch
	runOrder []uint64

	allocs map[JobID]*Allocation
}

// New returns an empty State over the topology, on the optimized paths.
func New(topo *topology.Topology) *State { return newState(topo, false) }

// NewReference is New for a state priced and searched by the reference
// implementations only (see Reference).
func NewReference(topo *topology.Topology) *State { return newState(topo, true) }

func newState(topo *topology.Topology, reference bool) *State {
	s := &State{
		topo:        topo,
		reference:   reference,
		nodeJob:     make([]JobID, topo.NumNodes()),
		nodeDown:    make([]bool, topo.NumNodes()),
		nodeFailed:  make([]bool, topo.NumNodes()),
		leafBusy:    make([]int, topo.NumLeaves()),
		leafComm:    make([]int, topo.NumLeaves()),
		leafShare:   make([]float64, topo.NumLeaves()),
		leafUnavail: make([]int, topo.NumLeaves()),
		free:        topo.NumNodes(),
		switchFree:  make([]int, len(topo.Switches)),
		allocs:      make(map[JobID]*Allocation),
	}
	for i := range s.nodeJob {
		s.nodeJob[i] = -1
	}
	for _, sw := range topo.Switches {
		for _, l := range sw.DescLeaves {
			s.switchFree[sw.Index] += topo.LeafSize(l)
		}
	}
	return s
}

// adjustFree applies a free-node delta to leaf l's whole ancestor chain —
// the O(tree-height) update that keeps switchFree consistent.
func (s *State) adjustFree(l, delta int) {
	for sw := s.topo.Leaves[l]; sw != nil; sw = sw.Parent {
		//lint:allow genbump counter maintenance inside Allocate/Release/Drain/Resume, which bump gen once per mutation
		s.switchFree[sw.Index] += delta
	}
}

// Reference reports whether the state was built to take the reference
// implementations: the O(leaves) SwitchFreeSlow and per-call CommShareSlow
// here, the uncached node-pair loops and tentative allocation in costmodel.
// It never changes over a state's life, so readers need no synchronisation.
func (s *State) Reference() bool { return s.reference }

// Generation returns the mutation counter: it changes whenever an
// allocate, release, drain or resume alters the state, and is what a
// placement selected or validated on this state is bound to.
func (s *State) Generation() uint64 { return s.gen }

// Topology returns the underlying topology.
func (s *State) Topology() *topology.Topology { return s.topo }

// FreeTotal returns the number of free nodes in the whole cluster.
func (s *State) FreeTotal() int { return s.free }

// NumRunning returns the number of jobs currently holding allocations.
func (s *State) NumRunning() int { return len(s.allocs) }

// NodeFree reports whether node id is allocatable: unallocated and not
// drained.
func (s *State) NodeFree(id int) bool { return s.nodeJob[id] < 0 && !s.nodeDown[id] }

// NodeJob returns the job holding node id, or -1.
func (s *State) NodeJob(id int) JobID { return s.nodeJob[id] }

// LeafBusy returns L_busy for leaf l.
func (s *State) LeafBusy(l int) int { return s.leafBusy[l] }

// LeafComm returns L_comm for leaf l.
func (s *State) LeafComm(l int) int { return s.leafComm[l] }

// LeafFree returns the number of allocatable nodes on leaf l (drained free
// nodes are excluded).
func (s *State) LeafFree(l int) int {
	return s.topo.LeafSize(l) - s.leafBusy[l] - s.leafUnavail[l]
}

// SwitchFree returns the number of free nodes in the subtree of sw. It is
// an O(1) counter read (see adjustFree); a reference state falls back to
// SwitchFreeSlow, the original O(leaves) scan, for differential equivalence
// checks.
func (s *State) SwitchFree(sw *topology.Switch) int {
	if s.reference {
		return s.SwitchFreeSlow(sw)
	}
	return s.switchFree[sw.Index]
}

// SwitchFreeSlow recomputes the subtree free count by scanning descendant
// leaves — the reference implementation SwitchFree's counter is checked
// against (CheckInvariants, the verify harness and benchmarks).
func (s *State) SwitchFreeSlow(sw *topology.Switch) int {
	total := 0
	for _, l := range sw.DescLeaves {
		total += s.LeafFree(l)
	}
	return total
}

// CommRatio computes Eq. 1 for leaf l:
//
//	CommunicationRatio(L) = L_comm/L_busy + L_busy/L_nodes
//
// An idle leaf (L_busy = 0) has ratio 0: no contention and all nodes free,
// i.e. the most attractive leaf for a communication-intensive job.
func (s *State) CommRatio(l int) float64 {
	busy := s.leafBusy[l]
	if busy == 0 {
		return 0
	}
	return float64(s.leafComm[l])/float64(busy) +
		float64(busy)/float64(s.topo.LeafSize(l))
}

// CommShare returns L_comm/L_nodes for leaf l, the per-switch contention
// term of the cost model (Eq. 2 and Eq. 3). It is an O(1) read of the
// incrementally maintained per-leaf share; a reference state falls back to
// CommShareSlow, the original per-call division, for differential
// equivalence checks.
func (s *State) CommShare(l int) float64 {
	if s.reference {
		return s.CommShareSlow(l)
	}
	return s.leafShare[l]
}

// CommShareSlow recomputes L_comm/L_nodes from the counters — the
// reference implementation the maintained leafShare is checked against
// (CheckInvariants and the verify harness).
func (s *State) CommShareSlow(l int) float64 {
	return float64(s.leafComm[l]) / float64(s.topo.LeafSize(l))
}

// updateShare refreshes the maintained L_comm/L_nodes after a leafComm
// change. It stores the division result itself (never an incremental
// delta), so the fast read stays bit-identical to CommShareSlow.
func (s *State) updateShare(l int) {
	//lint:allow genbump share maintenance inside Allocate/Release, which bump gen once per mutation
	s.leafShare[l] = float64(s.leafComm[l]) / float64(s.topo.LeafSize(l))
}

// FreeOnLeaf appends the IDs of the allocatable nodes on leaf l to dst and
// returns the extended slice, in ascending node-ID order.
func (s *State) FreeOnLeaf(l int, dst []int) []int {
	for _, id := range s.topo.LeafNodes(l) {
		if s.NodeFree(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Allocation returns the allocation of job id, or nil.
func (s *State) Allocation(id JobID) *Allocation {
	return s.allocs[id]
}

// RunningAllocations returns all current allocations sorted by job ID.
func (s *State) RunningAllocations() []*Allocation {
	out := make([]*Allocation, 0, len(s.allocs))
	for _, a := range s.allocs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// Allocate assigns the listed nodes to the job. All nodes must be free and
// the job must not already hold an allocation.
func (s *State) Allocate(job JobID, class Class, nodes []int) error {
	p := NewPlacement(nodes)
	return s.AllocatePlacement(job, class, &p)
}

// AllocatePlacement is Allocate for a placement a selector built or an
// earlier layer already validated: p.Validate decides what has to be checked
// again, and the counters move by one delta per leaf run. The ascending
// Allocation.Nodes is the runs concatenated in order of their first node
// ID, copied out of the list if the placement has one, else read off the
// leaves here: the one time an unlisted placement's nodes are named. Only
// nodes not ascending within or across runs (rank-remapped, caller-supplied,
// leaves whose ID ranges interleave) are sorted.
func (s *State) AllocatePlacement(job JobID, class Class, p *Placement) error {
	if err := p.Validate(s, job, &s.scratch); err != nil {
		return err
	}
	nodes, runs := p.nodes, p.runs
	order := s.runOrder[:0]
	for i, run := range runs[:len(runs)-1] {
		first := s.topo.LeafNodes(int(run >> 32))[0] // validated free-rank runs revisit a leaf in free-rank order
		if nodes != nil {
			first = nodes[uint32(run)]
		}
		order = append(order, uint64(first)<<32|uint64(i))
	}
	slices.Sort(order)
	s.runOrder = order
	sorted := make([]int, 0, p.Len())
	ascending, prev := true, -1
	leaf, taken, rest := -1, 0, []int(nil) // free ranks of leaf below taken lie before rest
	for _, o := range order {
		i := uint32(o)
		l, from, k := int(runs[i]>>32), len(sorted), int(uint32(runs[i+1])-uint32(runs[i]))
		if nodes != nil {
			sorted = append(sorted, nodes[uint32(runs[i]):uint32(runs[i+1])]...)
		} else {
			if l != leaf {
				leaf, taken, rest = l, 0, s.topo.LeafNodes(l)
			}
			sorted, rest = s.takeFree(rest, int(p.skip[i])-taken, k, sorted)
			taken = int(p.skip[i]) + k
		}
		ascending, prev = s.hold(sorted[from:], job, ascending, prev)
		s.leafBusy[l] += k
		s.adjustFree(l, -k)
		if class == CommIntensive {
			s.leafComm[l] += k
			s.updateShare(l)
		}
	}
	if !ascending {
		sort.Ints(sorted)
	}
	s.free -= len(sorted)
	s.gen++
	s.allocs[job] = &Allocation{Job: job, Class: class, Nodes: sorted}
	return nil
}

// hold gives ids to job and carries the ascent check over them: whether all
// nodes so far ascend, and the last one. Inlined, its loop spills every variable.
//
//go:noinline
func (s *State) hold(ids []int, job JobID, ascending bool, prev int) (bool, int) {
	nodeJob := s.nodeJob
	for _, id := range ids {
		nodeJob[id] = job
		ascending = ascending && id > prev
		prev = id
	}
	return ascending, prev
}

// Release frees all nodes held by the job, one counter delta per group of
// the allocation's ascending nodes that share a leaf.
func (s *State) Release(job JobID) error {
	a, ok := s.allocs[job]
	if !ok {
		return fmt.Errorf("cluster: job %d not allocated", job)
	}
	returned := 0
	for i := 0; i < len(a.Nodes); {
		l := s.topo.LeafOf(a.Nodes[i])
		held, down := 0, 0
		for ; i < len(a.Nodes) && s.topo.LeafOf(a.Nodes[i]) == l; i++ {
			id := a.Nodes[i]
			s.nodeJob[id] = -1
			held++
			if s.nodeDown[id] {
				down++
			}
		}
		s.leafBusy[l] -= held
		if a.Class == CommIntensive {
			s.leafComm[l] -= held
			s.updateShare(l)
		}
		// Drained while running: those nodes leave service instead of
		// returning to the allocatable pool, so the subtree free counts do
		// not move for them (leafBusy-- cancels leafUnavail++).
		s.leafUnavail[l] += down
		s.adjustFree(l, held-down)
		returned += held - down
	}
	s.free += returned
	s.gen++
	delete(s.allocs, job)
	return nil
}

// Clone returns an independent deep copy of the state, sharing only the
// immutable topology and keeping its mode: a reference state's clone is a
// reference state.
func (s *State) Clone() *State { return s.CloneAs(s.reference) }

// CloneAs is Clone with the copy's mode chosen: the same situation as an
// optimized or as a reference state, so a parity check can price it both
// ways.
func (s *State) CloneAs(reference bool) *State {
	c := &State{
		topo:        s.topo,
		reference:   reference,
		nodeJob:     append([]JobID(nil), s.nodeJob...),
		nodeDown:    append([]bool(nil), s.nodeDown...),
		nodeFailed:  append([]bool(nil), s.nodeFailed...),
		leafBusy:    append([]int(nil), s.leafBusy...),
		leafComm:    append([]int(nil), s.leafComm...),
		leafShare:   append([]float64(nil), s.leafShare...),
		leafUnavail: append([]int(nil), s.leafUnavail...),
		free:        s.free,
		down:        s.down,
		failed:      s.failed,
		switchFree:  append([]int(nil), s.switchFree...),
		allocs:      make(map[JobID]*Allocation, len(s.allocs)),
	}
	//lint:allow determinism map-to-map copy; result is order-insensitive
	for id, a := range s.allocs {
		c.allocs[id] = &Allocation{
			Job:   a.Job,
			Class: a.Class,
			Nodes: append([]int(nil), a.Nodes...),
		}
	}
	return c
}

// CheckInvariants verifies internal consistency (counter sums, ownership).
// It is O(nodes) and intended for tests and failure injection.
func (s *State) CheckInvariants() error {
	busy := make([]int, s.topo.NumLeaves())
	comm := make([]int, s.topo.NumLeaves())
	unavail := make([]int, s.topo.NumLeaves())
	freeCount, down, failed := 0, 0, 0
	owned := make(map[JobID]int)
	for id, job := range s.nodeJob {
		if s.nodeDown[id] {
			down++
		}
		if s.nodeFailed[id] {
			failed++
			// Hard failures imply the node is down and its job was killed:
			// a failed node must never carry a live allocation.
			if !s.nodeDown[id] {
				return fmt.Errorf("node %d failed but not down", id)
			}
			if job >= 0 {
				return fmt.Errorf("failed node %d still allocated to job %d", id, job)
			}
		}
		if job < 0 {
			if s.nodeDown[id] {
				unavail[s.topo.LeafOf(id)]++
			} else {
				freeCount++
			}
			continue
		}
		a, ok := s.allocs[job]
		if !ok {
			return fmt.Errorf("node %d owned by unknown job %d", id, job)
		}
		l := s.topo.LeafOf(id)
		busy[l]++
		if a.Class == CommIntensive {
			comm[l]++
		}
		owned[job]++
	}
	if freeCount != s.free {
		return fmt.Errorf("free count %d, recomputed %d", s.free, freeCount)
	}
	if down != s.down || failed != s.failed {
		return fmt.Errorf("down/failed counts %d/%d, recomputed %d/%d", s.down, s.failed, down, failed)
	}
	for l := range busy {
		if busy[l] != s.leafBusy[l] {
			return fmt.Errorf("leaf %d busy %d, recomputed %d", l, s.leafBusy[l], busy[l])
		}
		if comm[l] != s.leafComm[l] {
			return fmt.Errorf("leaf %d comm %d, recomputed %d", l, s.leafComm[l], comm[l])
		}
		if unavail[l] != s.leafUnavail[l] {
			return fmt.Errorf("leaf %d unavail %d, recomputed %d", l, s.leafUnavail[l], unavail[l])
		}
		// The maintained share must be bit-identical to the reference
		// division, not merely close: cost evaluation mixes the two paths.
		if math.Float64bits(s.leafShare[l]) != math.Float64bits(s.CommShareSlow(l)) {
			return fmt.Errorf("leaf %d comm share %v, recomputed %v", l, s.leafShare[l], s.CommShareSlow(l))
		}
	}
	ids := make([]JobID, 0, len(s.allocs))
	for id := range s.allocs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if a := s.allocs[id]; owned[id] != len(a.Nodes) {
			return fmt.Errorf("job %d holds %d nodes, allocation lists %d",
				id, owned[id], len(a.Nodes))
		}
	}
	for _, sw := range s.topo.Switches {
		if got, want := s.switchFree[sw.Index], s.SwitchFreeSlow(sw); got != want {
			return fmt.Errorf("switch %s free counter %d, recomputed %d", sw.Name, got, want)
		}
	}
	return nil
}
