// Package cluster tracks which nodes of a topology are allocated to which
// jobs and maintains the per-leaf-switch counters the paper's algorithms
// consume: L_nodes (leaf size), L_busy (allocated nodes) and L_comm (nodes
// running communication-intensive jobs). It also computes the
// communication ratio of Eq. 1, the quantity the greedy algorithm sorts
// leaf switches by.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

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

// Allocation records the nodes held by a running job as leaf masks: for
// every leaf the job touches, in order of the leaves' first node ID, one
// header word leaf<<32 | node count and then that leaf's words of the
// layout's bitmap with the job's nodes set. Nobody else records who holds a
// node.
//
// An Allocation is immutable: AllocatePlacement builds it with masks of its
// own, and Release only forgets it, changing nothing in it. A holder may keep
// it past the release, and its Nodes stay the job's even after other jobs
// commit the same nodes.
type Allocation struct {
	Job   JobID
	Class Class
	topo  *topology.Topology
	size  int
	masks []uint64
}

// Nodes lists the held node IDs, ascending, rendered from the masks on every
// call.
func (a *Allocation) Nodes() []int {
	return AppendNodes(a.topo, make([]int, 0, a.size), a.masks)
}

// Masks returns the allocation's leaf masks in the encoding described on
// Allocation, for a holder to copy. The slice is the allocation's own and
// must not be modified.
func (a *Allocation) Masks() []uint64 { return a.masks }

// AppendNodes appends to dst, ascending, the node IDs set in masks — an
// Allocation's masks or a copy of them, over topo's layout — and returns the
// extended slice. It only reads masks.
func AppendNodes(topo *topology.Topology, dst []int, masks []uint64) []int {
	start, lay := len(dst), topo.Layout()
	for m := masks; len(m) > 0; {
		l, _, mask, rest := leafMask(lay, m)
		ids := topo.LeafNodes(l)
		for w, word := range mask {
			dst = appendBits(dst, ids[w<<6:], word)
		}
		m = rest
	}
	if nodes := dst[start:]; !slices.IsSorted(nodes) { // leaves whose ID ranges interleave
		slices.Sort(nodes)
	}
	return dst
}

// leafMask splits the first leaf off an allocation's masks: the leaf, the
// node count in its header, its mask words, and the leaves after it.
func leafMask(lay *topology.Layout, m []uint64) (l, held int, mask, rest []uint64) {
	l = int(m[0] >> 32)
	end := 1 + int(lay.LeafWordOff[l+1]-lay.LeafWordOff[l])
	return l, int(uint32(m[0])), m[1:end], m[end:]
}

// appendBits appends ids[i] for every set bit i of word, lowest first.
func appendBits(dst, ids []int, word uint64) []int {
	for ; word != 0; word &= word - 1 {
		dst = append(dst, ids[bits.TrailingZeros64(word)])
	}
	return dst
}

// pickRanks returns the set bits of free whose ranks among them lie in
// [skip, skip+k), with skip and k reduced by the bits passed over and picked:
// a popcount when the word lies wholly outside or inside the interval, at
// most 63 bit-clears at either edge of it.
func pickRanks(free uint64, skip, k int) (uint64, int, int) {
	c := bits.OnesCount64(free)
	if skip >= c {
		return 0, skip - c, k
	}
	for c -= skip; skip > 0; skip-- {
		free &= free - 1
	}
	if c > k {
		beyond := free
		for i := 0; i < k; i++ {
			beyond &= beyond - 1
		}
		free, c = free&^beyond, k
	}
	return free, 0, k - c
}

// State is the mutable allocation state of a cluster: three bitmaps over the
// nodes, the per-leaf and per-switch counters every decision reads, and the
// running allocations, which alone say whose a busy node is. It is not safe
// for concurrent use; the simulator is single-threaded per run (experiment
// harnesses run independent States in parallel).
type State struct {
	topo *topology.Topology
	lay  *topology.Layout
	// reference, fixed at construction, routes SwitchFree through
	// SwitchFreeSlow, and costmodel and the selectors through their
	// reference loops, for every evaluation over this state.
	// The differential harness runs the same trace on a state of each kind.
	reference bool

	// One bit per node at lay.NodeBit: busyBits held by a running job (the
	// pad bits of every leaf's last word are set too, so ^(busy|down) is
	// exactly the allocatable nodes), downBits out of service (ineligible for
	// new allocations), failedBits the hard failures among those: a failed
	// node's job was killed and requeued, a drained node's job ran to
	// completion. failed ⇒ down always holds.
	busyBits, downBits, failedBits []uint64

	leafBusy []int // per leaf: allocated node count (L_busy)
	leafComm []int // per leaf: nodes running comm-intensive jobs (L_comm)
	// leafUnavail counts free-but-drained nodes per leaf; they are excluded
	// from LeafFree and FreeTotal.
	leafUnavail []int
	free        int
	// down and failed count the nodes marked in downBits and failedBits.
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

	// scratch serves the validations Allocate itself runs, runOrder its
	// ordering of a placement's runs by leaf and maskBuf the masks it builds
	// before it knows their length. All are working memory of a mutator,
	// never read by the pure-read paths.
	scratch           Scratch
	runOrder, maskBuf []uint64

	allocs map[JobID]*Allocation
}

// New returns an empty State over the topology, on the optimized paths.
func New(topo *topology.Topology) *State { return newState(topo, false) }

// NewReference is New for a state priced and searched by the reference
// implementations only (see Reference).
func NewReference(topo *topology.Topology) *State { return newState(topo, true) }

func newState(topo *topology.Topology, reference bool) *State {
	lay := topo.Layout()
	words := lay.LeafWordOff[lay.L]
	s := &State{
		topo:        topo,
		lay:         lay,
		reference:   reference,
		busyBits:    make([]uint64, words),
		downBits:    make([]uint64, words),
		failedBits:  make([]uint64, words),
		leafBusy:    make([]int, topo.NumLeaves()),
		leafComm:    make([]int, topo.NumLeaves()),
		leafUnavail: make([]int, topo.NumLeaves()),
		free:        topo.NumNodes(),
		switchFree:  make([]int, len(topo.Switches)),
		allocs:      make(map[JobID]*Allocation),
	}
	for l := 0; l < lay.L; l++ {
		if pad := topo.LeafSize(l) & 63; pad != 0 {
			s.busyBits[lay.LeafWordOff[l+1]-1] = ^uint64(0) << pad
		}
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
// implementations: the O(leaves) SwitchFreeSlow here, the node-pair loop
// and tentative allocation in costmodel.
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
func (s *State) NodeFree(id int) bool {
	b := s.lay.NodeBit[id]
	return (s.busyBits[b>>6]|s.downBits[b>>6])>>(b&63)&1 == 0
}

// isSet reads node id's bit of one of the state's bitmaps.
func (s *State) isSet(bitmap []uint64, id int) bool {
	b := s.lay.NodeBit[id]
	return bitmap[b>>6]>>(b&63)&1 != 0
}

// NodeJob returns the job holding node id, or -1. A busy node's holder is
// looked up in the running allocations' masks: no decision asks, only Fail,
// Repair, error messages and tests.
func (s *State) NodeJob(id int) JobID {
	if !s.isSet(s.busyBits, id) {
		return -1
	}
	leaf := s.topo.LeafOf(id)
	b := s.lay.NodeBit[id] - s.lay.LeafWordOff[leaf]<<6
	for _, a := range s.RunningAllocations() {
		for m := a.masks; len(m) > 0; {
			l, _, mask, rest := leafMask(s.lay, m)
			if l == leaf && mask[b>>6]>>(b&63)&1 != 0 {
				return a.Job
			}
			m = rest
		}
	}
	return -1
}

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
// term of the cost model (Eq. 2 and Eq. 3). costmodel's pricing divides the
// same two numbers the same way, so both agree bit for bit.
func (s *State) CommShare(l int) float64 {
	return float64(s.leafComm[l]) / s.lay.LeafSize[l]
}

// FreeOnLeaf appends the IDs of the allocatable nodes on leaf l to dst and
// returns the extended slice, in ascending node-ID order: the clear bits of
// busy|down, word by word.
func (s *State) FreeOnLeaf(l int, dst []int) []int {
	return s.appendRanks(dst, l, 0, s.topo.LeafSize(l))
}

// appendRanks appends to dst the allocatable nodes of leaf l at free ranks
// [skip, skip+k), fewer if the leaf runs out.
func (s *State) appendRanks(dst []int, l, skip, k int) []int {
	ids, off := s.topo.LeafNodes(l), int(s.lay.LeafWordOff[l])
	for w := off; k > 0 && w < int(s.lay.LeafWordOff[l+1]); w++ {
		var picked uint64
		picked, skip, k = pickRanks(^(s.busyBits[w] | s.downBits[w]), skip, k)
		dst = appendBits(dst, ids[(w-off)<<6:], picked)
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
	slices.SortFunc(out, func(a, b *Allocation) int { return cmp.Compare(a.Job, b.Job) })
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
// again. The runs are grouped by leaf, leaves in order of their first node
// ID, and each leaf gets one mask: a free-rank run picks its ranks out of
// ^(busy|down) by word, all runs of the leaf against the words as selected
// on, a listed run sets its nodes' bits. The mask goes into busyBits and the
// allocation, the counters move by one delta per leaf, and no node is named.
func (s *State) AllocatePlacement(job JobID, class Class, p *Placement) error {
	if err := p.Validate(s, job, &s.scratch); err != nil {
		return err
	}
	lay, runs := s.lay, p.runs
	order := s.runOrder[:0]
	for i, run := range runs[:len(runs)-1] {
		order = append(order, uint64(s.topo.LeafNodes(int(run >> 32))[0])<<32|uint64(i))
	}
	slices.Sort(order) // a leaf's runs stay in run order: increasing free ranks
	s.runOrder = order
	masks := s.maskBuf[:0]
	for i := 0; i < len(order); {
		l, held := int(runs[uint32(order[i])]>>32), 0
		off, end := int(lay.LeafWordOff[l]), int(lay.LeafWordOff[l+1])
		head := len(masks)
		masks = slices.Grow(masks, 1+end-off)[:head+1+end-off]
		mask := masks[head+1:]
		clear(mask)
		for ; i < len(order) && int(runs[uint32(order[i])]>>32) == l; i++ {
			r := uint32(order[i])
			from, k := uint32(runs[r]), int(uint32(runs[r+1])-uint32(runs[r]))
			held += k
			if p.skip == nil {
				for _, id := range p.nodes[from : int(from)+k] {
					b := int(lay.NodeBit[id]) - off<<6
					mask[b>>6] |= 1 << (b & 63)
				}
				continue
			}
			skip := int(p.skip[r])
			for w := off; k > 0 && w < end; w++ {
				var picked uint64
				picked, skip, k = pickRanks(^(s.busyBits[w] | s.downBits[w]), skip, k)
				mask[w-off] |= picked
			}
		}
		masks[head] = uint64(l)<<32 | uint64(held)
		for w, m := range mask {
			s.busyBits[off+w] |= m
		}
		s.leafBusy[l] += held
		s.adjustFree(l, -held)
		if class == CommIntensive {
			s.leafComm[l] += held
		}
	}
	s.maskBuf = masks
	s.free -= p.Len()
	s.gen++
	s.allocs[job] = &Allocation{Job: job, Class: class, topo: s.topo, size: p.Len(), masks: slices.Clone(masks)}
	return nil
}

// Release frees all nodes held by the job: per leaf of its allocation the
// mask leaves busyBits and the counters move by one delta.
//
//caws:noalloc
func (s *State) Release(job JobID) error {
	a, ok := s.allocs[job]
	if !ok {
		return fmt.Errorf("cluster: job %d not allocated", job)
	}
	returned := 0
	for m := a.masks; len(m) > 0; {
		l, held, mask, rest := leafMask(s.lay, m)
		off, down := int(s.lay.LeafWordOff[l]), 0
		for w, word := range mask {
			s.busyBits[off+w] &^= word
			down += bits.OnesCount64(word & s.downBits[off+w])
		}
		s.leafBusy[l] -= held
		if a.Class == CommIntensive {
			s.leafComm[l] -= held
		}
		// Drained while running: those nodes leave service instead of
		// returning to the allocatable pool, so the subtree free counts do
		// not move for them (leafBusy-- cancels leafUnavail++).
		s.leafUnavail[l] += down
		s.adjustFree(l, held-down)
		returned += held - down
		m = rest
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
		lay:         s.lay,
		busyBits:    slices.Clone(s.busyBits),
		downBits:    slices.Clone(s.downBits),
		failedBits:  slices.Clone(s.failedBits),
		leafBusy:    append([]int(nil), s.leafBusy...),
		leafComm:    append([]int(nil), s.leafComm...),
		leafUnavail: append([]int(nil), s.leafUnavail...),
		free:        s.free,
		down:        s.down,
		failed:      s.failed,
		switchFree:  append([]int(nil), s.switchFree...),
		allocs:      make(map[JobID]*Allocation, len(s.allocs)),
	}
	//lint:allow determinism map-to-map copy; result is order-insensitive
	for id, a := range s.allocs {
		clone := *a
		clone.masks = slices.Clone(a.masks)
		c.allocs[id] = &clone
	}
	return c
}

// CheckInvariants verifies internal consistency: the allocations' masks
// (headers, sizes, no node held twice, no pad bit) against the busy bitmap,
// the node marks, every counter recounted. It is O(nodes) and intended for
// tests and failure injection.
func (s *State) CheckInvariants() error {
	owner := make([]JobID, s.topo.NumNodes())
	for id := range owner {
		owner[id] = -1
	}
	for _, a := range s.RunningAllocations() { // by job ID: the first violation is the same on every call
		total := 0
		for m := a.masks; len(m) > 0; {
			l, held, mask, rest := leafMask(s.lay, m)
			ids, set := s.topo.LeafNodes(l), 0
			for w, word := range mask {
				for set += bits.OnesCount64(word); word != 0; word &= word - 1 {
					i := w<<6 + bits.TrailingZeros64(word)
					if i >= len(ids) {
						return fmt.Errorf("job %d holds pad bit %d of leaf %d", a.Job, i, l)
					}
					if owner[ids[i]] >= 0 {
						return fmt.Errorf("node %d held by jobs %d and %d", ids[i], owner[ids[i]], a.Job)
					}
					owner[ids[i]] = a.Job
				}
			}
			if set != held {
				return fmt.Errorf("job %d: leaf %d mask has %d nodes, its header says %d", a.Job, l, set, held)
			}
			total, m = total+held, rest
		}
		if total != a.size {
			return fmt.Errorf("job %d holds %d nodes, allocation lists %d", a.Job, total, a.size)
		}
	}
	for l := 0; l < s.lay.L; l++ {
		if pad := s.topo.LeafSize(l) & 63; pad != 0 {
			w, padBits := s.lay.LeafWordOff[l+1]-1, ^uint64(0)<<pad
			if s.busyBits[w]&padBits != padBits || (s.downBits[w]|s.failedBits[w])&padBits != 0 {
				return fmt.Errorf("leaf %d: pad bits disturbed", l)
			}
		}
	}
	busy := make([]int, s.topo.NumLeaves())
	comm := make([]int, s.topo.NumLeaves())
	unavail := make([]int, s.topo.NumLeaves())
	freeCount, down, failed := 0, 0, 0
	for id, job := range owner {
		if bit := s.isSet(s.busyBits, id); bit != (job >= 0) {
			return fmt.Errorf("node %d busy bit %v, held by job %d", id, bit, job)
		}
		if s.NodeDown(id) {
			down++
		}
		if s.NodeFailed(id) {
			failed++
			// Hard failures imply the node is down and its job was killed:
			// a failed node must never carry a live allocation.
			if !s.NodeDown(id) {
				return fmt.Errorf("node %d failed but not down", id)
			}
			if job >= 0 {
				return fmt.Errorf("failed node %d still allocated to job %d", id, job)
			}
		}
		l := s.topo.LeafOf(id)
		switch {
		case job >= 0:
			busy[l]++
			if s.allocs[job].Class == CommIntensive {
				comm[l]++
			}
		case s.NodeDown(id):
			unavail[l]++
		default:
			freeCount++
		}
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
	}
	for _, sw := range s.topo.Switches {
		if got, want := s.switchFree[sw.Index], s.SwitchFreeSlow(sw); got != want {
			return fmt.Errorf("switch %s free counter %d, recomputed %d", sw.Name, got, want)
		}
	}
	return nil
}
