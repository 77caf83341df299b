package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/topology"
)

// refState is the node-by-node oracle the mask paths are checked against: a
// State of its own that only allocateRef and releaseRef commit on, and the
// per-node owner array the production State no longer has.
type refState struct {
	*State
	owner []JobID
}

func newRefState(s *State) *refState {
	r := &refState{s, make([]JobID, s.topo.NumNodes())}
	for id := range r.owner {
		r.owner[id] = s.NodeJob(id)
	}
	return r
}

// setBit moves node id's bit of a bitmap or a leaf mask whose first word is
// word base, finding the bit by the node's place in its leaf's node list.
func (s *refState) setBit(words []uint64, base, id int, on bool) {
	l := s.topo.LeafOf(id)
	at, _ := slices.BinarySearch(s.topo.LeafNodes(l), id) // a leaf lists its nodes in ascending ID
	w := int(s.lay.LeafWordOff[l]) - base + at/64
	if words[w] &^= 1 << (at % 64); on {
		words[w] |= 1 << (at % 64)
	}
}

// allocateRef is the node-by-node Allocate that AllocatePlacement replaced,
// kept as the reference the per-leaf path is checked against: every check in
// the same order with the same messages, then one bit, one counter update,
// one ancestor-chain walk and one share division per node over a sorted copy.
func (s *refState) allocateRef(job JobID, class Class, nodes []int) error {
	if job < 0 {
		return fmt.Errorf("cluster: job IDs must be non-negative, got %d", job)
	}
	if len(nodes) == 0 {
		return fmt.Errorf("cluster: job %d: empty allocation", job)
	}
	if _, dup := s.allocs[job]; dup {
		return fmt.Errorf("cluster: job %d already allocated", job)
	}
	seen := make(map[int]bool, len(nodes))
	for _, id := range nodes {
		if id < 0 || id >= len(s.owner) {
			return fmt.Errorf("cluster: job %d: node %d out of range", job, id)
		}
		if seen[id] {
			return fmt.Errorf("cluster: job %d: node %d listed twice", job, id)
		}
		seen[id] = true
		if s.owner[id] >= 0 {
			return fmt.Errorf("cluster: job %d: node %d busy (held by job %d)",
				job, id, s.owner[id])
		}
		if s.NodeDown(id) {
			return fmt.Errorf("cluster: job %d: node %d is %s: %w",
				job, id, s.downWord(id), ErrNodeUnavailable)
		}
	}
	sorted := append([]int(nil), nodes...)
	sort.Ints(sorted)
	a := &Allocation{Job: job, Class: class, topo: s.topo, size: len(sorted)}
	leaf, header := -1, 0
	for _, id := range sorted {
		s.owner[id] = job
		s.setBit(s.busyBits, 0, id, true)
		l := s.topo.LeafOf(id)
		if l != leaf { // ascending IDs visit each leaf once, in order of first node
			leaf, header = l, len(a.masks)
			a.masks = append(a.masks, make([]uint64, 1+s.lay.LeafWordOff[l+1]-s.lay.LeafWordOff[l])...)
			a.masks[header] = uint64(l) << 32
		}
		a.masks[header]++
		s.setBit(a.masks[header+1:], int(s.lay.LeafWordOff[l]), id, true)
		s.leafBusy[l]++
		s.adjustFree(l, -1)
		if class == CommIntensive {
			s.leafComm[l]++
		}
	}
	s.free -= len(sorted)
	s.gen++
	s.allocs[job] = a
	return nil
}

// releaseRef is the node-by-node Release that the per-leaf mask walk
// replaced.
func (s *refState) releaseRef(job JobID) error {
	a, ok := s.allocs[job]
	if !ok {
		return fmt.Errorf("cluster: job %d not allocated", job)
	}
	returned := 0
	for _, id := range a.Nodes() { // rendered from the masks allocateRef set bit by bit
		if s.owner[id] != job {
			return fmt.Errorf("cluster: job %d lists node %d, held by %d", job, id, s.owner[id])
		}
		s.owner[id] = -1
		s.setBit(s.busyBits, 0, id, false)
		l := s.topo.LeafOf(id)
		s.leafBusy[l]--
		if a.Class == CommIntensive {
			s.leafComm[l]--
		}
		if s.NodeDown(id) {
			s.leafUnavail[l]++
		} else {
			s.adjustFree(l, 1)
			returned++
		}
	}
	s.free += returned
	s.gen++
	delete(s.allocs, job)
	return nil
}

// sameState reports the first difference between two states' observable and
// internal bookkeeping: every counter, switchFree,
// free, the generation, the bitmaps (pad bits included), what every node
// query answers for every node, and every allocation's node list.
func sameState(a, b *State) error {
	if a.free != b.free || a.gen != b.gen || a.down != b.down || a.failed != b.failed {
		return fmt.Errorf("free/gen/down/failed %d/%d/%d/%d vs %d/%d/%d/%d", a.free, a.gen, a.down, a.failed, b.free, b.gen, b.down, b.failed)
	}
	for _, c := range []struct {
		name string
		same bool
	}{
		{"busyBits", slices.Equal(a.busyBits, b.busyBits)},
		{"downBits", slices.Equal(a.downBits, b.downBits)},
		{"failedBits", slices.Equal(a.failedBits, b.failedBits)},
		{"leafBusy", slices.Equal(a.leafBusy, b.leafBusy)},
		{"leafComm", slices.Equal(a.leafComm, b.leafComm)},
		{"leafUnavail", slices.Equal(a.leafUnavail, b.leafUnavail)},
		{"switchFree", slices.Equal(a.switchFree, b.switchFree)},
	} {
		if !c.same {
			return fmt.Errorf("%s differs", c.name)
		}
	}
	for id := 0; id < a.topo.NumNodes(); id++ {
		if a.NodeJob(id) != b.NodeJob(id) || a.NodeFree(id) != b.NodeFree(id) || a.NodeDown(id) != b.NodeDown(id) || a.NodeFailed(id) != b.NodeFailed(id) {
			return fmt.Errorf("node %d: job/free/down/failed %d/%v/%v/%v vs %d/%v/%v/%v", id,
				a.NodeJob(id), a.NodeFree(id), a.NodeDown(id), a.NodeFailed(id), b.NodeJob(id), b.NodeFree(id), b.NodeDown(id), b.NodeFailed(id))
		}
	}
	if len(a.allocs) != len(b.allocs) {
		return fmt.Errorf("%d vs %d allocations", len(a.allocs), len(b.allocs))
	}
	for _, x := range a.RunningAllocations() {
		y := b.allocs[x.Job]
		if y == nil || x.Class != y.Class || !slices.Equal(x.Nodes(), y.Nodes()) || !slices.Equal(x.masks, y.masks) {
			return fmt.Errorf("job %d: %+v vs %+v", x.Job, x, y)
		}
		if !sort.IntsAreSorted(x.Nodes()) || len(x.Nodes()) != x.size {
			return fmt.Errorf("job %d: Allocation.Nodes not %d ascending nodes: %v", x.Job, x.size, x.Nodes())
		}
	}
	return nil
}

// pair is one state mutated through the production path and a clone of it
// mutated through the references; check compares them after every step.
type pair struct {
	t   testing.TB
	opt *State
	ref *refState
}

func newPair(t testing.TB, topo *topology.Topology) *pair {
	s := New(topo)
	return &pair{t, s, newRefState(s.Clone())}
}

func (p *pair) check(what string, errOpt, errRef error) {
	p.t.Helper()
	if fmt.Sprint(errOpt) != fmt.Sprint(errRef) {
		p.t.Fatalf("%s: error %q, reference %q", what, fmt.Sprint(errOpt), fmt.Sprint(errRef))
	}
	if err := sameState(p.opt, p.ref.State); err != nil {
		p.t.Fatalf("%s: %v", what, err)
	}
	for id, job := range p.ref.owner {
		if got := p.opt.NodeJob(id); got != job {
			p.t.Fatalf("%s: NodeJob(%d) = %d, the oracle's owner array says %d", what, id, got, job)
		}
	}
	if err := p.opt.CheckInvariants(); err != nil {
		p.t.Fatalf("%s: %v", what, err)
	}
}

// allocate commits pl on the production state and its node list on the
// reference, and requires a failed Allocate to leave the state untouched.
// The list is taken from a copy, so a free-rank pl is committed unlisted.
func (p *pair) allocate(what string, job JobID, class Class, pl Placement) error {
	p.t.Helper()
	gen, nodes := p.opt.gen, listed(pl)
	errOpt := p.opt.AllocatePlacement(job, class, &pl)
	if errOpt != nil && p.opt.gen != gen {
		p.t.Fatalf("%s: failed Allocate moved the generation", what)
	}
	p.check(what, errOpt, p.ref.allocateRef(job, class, nodes))
	return errOpt
}

func (p *pair) release(what string, job JobID) {
	p.t.Helper()
	p.check(what, p.opt.Release(job), p.ref.releaseRef(job))
}

// both applies a node-state change (Drain, Repair, …) to the two states.
func (p *pair) both(what string, f func(*State) error) {
	p.t.Helper()
	p.check(what, f(p.opt), f(p.ref.State))
}

// fail takes the nodes down hard and then, as Fail's contract asks of its
// caller, releases the jobs that were running on them; it returns those.
func (p *pair) fail(what string, ids ...int) (victims []JobID) {
	p.t.Helper()
	for _, id := range ids {
		v, err := p.opt.Fail(id)
		vRef, errRef := p.ref.Fail(id)
		if v != vRef || err != nil || errRef != nil {
			p.t.Fatalf("%s: Fail(%d) = %d, %v; reference %d, %v", what, id, v, err, vRef, errRef)
		}
		if v >= 0 && !slices.Contains(victims, v) {
			victims = append(victims, v)
		}
	}
	for _, v := range victims {
		p.check(what, p.opt.Release(v), p.ref.releaseRef(v))
	}
	if len(victims) == 0 {
		p.check(what, nil, nil)
	}
	return victims
}

// withRuns is the owned list a free-rank placement becomes once listed,
// built directly: nodes in rank order with their run sequence, bound to no
// state.
func withRuns(nodes []int, runs []uint64) Placement {
	return Placement{nodes: nodes, runs: runs, owned: true}
}

// leafByLeaf builds a placement the way the selectors do: up to take free
// nodes from each listed leaf in turn, one run per visit, skipping nodes
// already chosen (a leaf may be listed twice, as balanced's second pass
// revisits leaves).
func leafByLeaf(s *State, leaves []int, take int) Placement {
	var nodes []int
	var runs []uint64
	chosen := map[int]bool{}
	for _, l := range leaves {
		first := len(nodes)
		for _, id := range s.topo.LeafNodes(l) {
			if len(nodes)-first < take && s.NodeFree(id) && !chosen[id] {
				chosen[id] = true
				nodes = append(nodes, id)
			}
		}
		if n := len(runs); len(nodes) > first && (n == 0 || int(runs[n-1]>>32) != l) {
			runs = append(runs, uint64(l)<<32|uint64(first))
		}
	}
	return withRuns(nodes, append(runs, uint64(len(nodes))))
}

// TestAllocatePlacementMatchesReference walks one state pair through the
// shapes a placement can take — selector-built over non-ascending and
// revisited leaves, wrapped ascending, wrapped permuted — and through every
// way a list can be invalid, on a machine with drained, failed and busy
// nodes.
func TestAllocatePlacementMatchesReference(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 4, Fanouts: []int{3, 2}}) // 6 leaves, 24 nodes
	p := newPair(t, topo)
	p.both("drain free node 5", func(s *State) error { return s.Drain(5) })
	p.fail("fail free node 9", 9)

	if err := p.allocate("selector-built, leaves 4,1,2,4", 1, CommIntensive, leafByLeaf(p.opt, []int{4, 1, 2, 4}, 2)); err != nil {
		t.Fatal(err)
	}
	if got := p.opt.Allocation(1).Nodes(); !slices.Equal(got, []int{4, 6, 8, 10, 16, 17, 18, 19}) {
		t.Fatalf("Allocation.Nodes = %v", got)
	}
	if err := p.allocate("wrapped ascending", 2, ComputeIntensive, NewPlacement([]int{0, 1, 12, 13})); err != nil {
		t.Fatal(err)
	}
	if err := p.allocate("wrapped permuted", 3, CommIntensive, NewPlacement([]int{22, 2, 20, 14, 3, 21})); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name  string
		job   JobID
		nodes []int
		want  string
	}{
		{"negative job", -1, []int{7}, "job IDs must be non-negative"},
		{"empty", 9, nil, "empty allocation"},
		{"job already allocated", 2, []int{7}, "already allocated"},
		{"out of range", 9, []int{7, 24}, "node 24 out of range"},
		{"negative node", 9, []int{-1}, "node -1 out of range"},
		{"listed twice", 9, []int{7, 11, 7}, "node 7 listed twice"},
		{"busy", 9, []int{7, 16}, "node 16 busy (held by job 1)"},
		{"drained", 9, []int{7, 5}, "node 5 is drained"},
		{"failed", 9, []int{7, 9}, "node 9 is down (failed)"},
		{"busy before twice", 9, []int{0, 7, 7}, "node 0 busy (held by job 2)"},
		{"twice before down", 9, []int{7, 7, 5}, "node 7 listed twice"},
	} {
		err := p.allocate(c.name, c.job, CommIntensive, NewPlacement(c.nodes))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want it to mention %q", c.name, err, c.want)
		}
	}

	// A selector-built placement goes through the same checks: here its
	// second run names a node that job 1 holds.
	bad := withRuns([]int{7, 16}, []uint64{1 << 32, 4<<32 | 1, 2})
	if err := p.allocate("selector-built naming a busy node", 9, CommIntensive, bad); err == nil {
		t.Error("selector-built placement over a busy node was accepted")
	}
	for _, job := range []JobID{3, 1, 2} {
		p.release(fmt.Sprintf("release %d", job), job)
	}
}

// TestStalePlacementStampIsRevalidated pins the stamp's meaning: a
// placement validated at one generation is checked again once the state has
// moved. A list (built as one, or a free-rank placement listed before the
// state moved) is scanned and fails with Allocate's message for what
// changed underneath it; an unlisted free-rank placement is stale, whatever
// moved, and is never read against the new generation.
func TestStalePlacementStampIsRevalidated(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 4, Fanouts: []int{3}})
	held := func(s *State) error { return s.Allocate(4, ComputeIntensive, []int{11}) }
	for _, c := range []struct {
		name   string
		setup  func(*State) error
		mutate func(*State) error
		want   string // a list's error; "" if the list is still good
	}{
		{"drain", nil, func(s *State) error { return s.Drain(5) }, "cluster: job 7: node 5 is drained: node unavailable"},
		{"fail", nil, func(s *State) error { _, err := s.Fail(5); return err }, "cluster: job 7: node 5 is down (failed): node unavailable"},
		{"allocate", nil, func(s *State) error { return s.Allocate(3, ComputeIntensive, []int{5}) }, "cluster: job 7: node 5 busy (held by job 3)"},
		{"release", held, func(s *State) error { return s.Release(4) }, ""},
		{"drain elsewhere", nil, func(s *State) error { return s.Drain(10) }, ""},
	} {
		for _, form := range []string{"built as a list", "listed before the mutation", "unlisted"} {
			name := c.name + ", " + form
			s := New(topo)
			if c.setup != nil {
				if err := c.setup(s); err != nil {
					t.Fatal(err)
				}
			}
			pl := leafByLeaf(s, []int{1, 0}, 3)
			want := slices.Clone(pl.nodes)
			if form != "built as a list" {
				pl = freeRankByLeaf(s, []int{1, 0}, 3)
			}
			var sc Scratch
			if err := pl.Validate(s, 7, &sc); err != nil {
				t.Fatal(err)
			}
			if pl.st != s || pl.gen != s.gen || !pl.valid {
				t.Fatalf("%s: a valid selector-built placement was not stamped", name)
			}
			if form == "listed before the mutation" && !slices.Equal(pl.Nodes(), want) {
				t.Fatalf("%s: listed %v, want %v", name, pl.nodes, want)
			}
			if err := c.mutate(s); err != nil {
				t.Fatal(err)
			}
			before := s.Clone()
			err := s.AllocatePlacement(7, CommIntensive, &pl)
			switch {
			case form == "unlisted":
				if !errors.Is(err, ErrStalePlacement) || !errors.Is(err, ErrNodeUnavailable) {
					t.Errorf("%s: Allocate of the stale runs: %v, want ErrStalePlacement wrapping ErrNodeUnavailable", name, err)
				}
				if got := pl.Nodes(); got != nil {
					t.Errorf("%s: stale runs listed %v against a generation they were not selected on", name, got)
				}
			case c.want == "":
				sort.Ints(want)
				if err != nil || !slices.Equal(s.Allocation(7).Nodes(), want) {
					t.Errorf("%s: the list is still free: %v, allocation %+v", name, err, s.Allocation(7))
				}
				if pl.skip != nil {
					t.Errorf("%s: a list stamped at a new generation kept the old one's free ranks", name)
				}
				continue
			case err == nil || err.Error() != c.want:
				t.Errorf("%s: Allocate of the stale placement: %v, want %q", name, err, c.want)
			}
			before.gen = s.gen
			if err := sameState(s, before); err != nil {
				t.Errorf("%s: failed Allocate changed the state: %v", name, err)
			}
			// A list is valid again on a state where nothing moved; stale
			// runs stay stale on any state but their own.
			for _, fresh := range []*State{New(topo), NewReference(topo)} {
				if err := fresh.AllocatePlacement(7, CommIntensive, &pl); (err == nil) != (form != "unlisted") {
					t.Errorf("%s: on a fresh state (reference=%v): %v", name, fresh.reference, err)
				}
			}
		}
	}

	// Runs are bound to the state, not to a generation number: on its clone in
	// the other mode, where nothing moved, they are stale all the same.
	own := New(topo)
	runs := freeRankByLeaf(own, []int{1, 0}, 3)
	if ref := own.CloneAs(true); ref.gen != own.gen {
		t.Fatalf("clone at generation %d, original at %d", ref.gen, own.gen)
	} else if err := ref.AllocatePlacement(7, CommIntensive, &runs); !errors.Is(err, ErrStalePlacement) {
		t.Errorf("runs selected on a state, allocated on its reference clone: %v, want ErrStalePlacement", err)
	}
	if err := own.AllocatePlacement(7, CommIntensive, &runs); err != nil {
		t.Errorf("the same runs on their own state: %v", err)
	}

	// A stamp never exempts the job checks, and a wrapped list never keeps one.
	s := New(topo)
	pl := leafByLeaf(s, []int{2}, 2)
	var sc Scratch
	if err := pl.Validate(s, 1, &sc); err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(s, -1, &sc); err == nil {
		t.Error("stamped placement accepted a negative job ID")
	}
	bare := NewPlacement([]int{0, 1})
	if err := bare.Validate(s, 1, &sc); err != nil || bare.st != nil {
		t.Errorf("wrapped list: err %v, stamped %v", err, bare.st != nil)
	}
}

// TestReleaseAfterMidRunDrainsAndFailures releases a job whose nodes were
// drained and failed while it ran, several per leaf on several leaves: the
// per-group walk must park exactly those nodes out of service.
func TestReleaseAfterMidRunDrainsAndFailures(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 4, Fanouts: []int{2, 2}})
	p := newPair(t, topo)
	if err := p.allocate("job 1", 1, CommIntensive, NewPlacement([]int{0, 1, 2, 3, 5, 6, 9, 12, 13, 14, 15})); err != nil {
		t.Fatal(err)
	}
	if err := p.allocate("job 2", 2, ComputeIntensive, leafByLeaf(p.opt, []int{2, 1}, 2)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 2, 6, 13, 15, 10} {
		p.both(fmt.Sprintf("drain busy node %d", id), func(s *State) error { return s.Drain(id) })
	}
	if v := p.fail("fail busy nodes 3 and 12, releasing their job", 3, 12); !slices.Equal(v, []JobID{1}) {
		t.Fatalf("victims %v, want job 1", v)
	}
	if got, want := p.opt.FreeTotal(), 16-4-7; got != want {
		t.Errorf("FreeTotal = %d, want %d", got, want)
	}
	for l, want := range []int{3, 1, 0, 3} {
		if got := p.opt.leafUnavail[l]; got != want {
			t.Errorf("leafUnavail[%d] = %d, want %d", l, got, want)
		}
	}
	p.release("release the other job", 2)
}

// FuzzPlacementAllocate drives random allocate, release and node-state
// operations through AllocatePlacement/Release and through the node-by-node
// references on a cloned state, comparing everything after every step. The
// lists are selector-shaped (leaf by leaf with runs), permuted, or made
// invalid: a repeated ID, an out-of-range ID, a busy node, a down node. A
// selector-shaped placement also comes as unlisted free-rank runs, intact
// or corrupted: corrupted runs are committed only if the node scan accepts
// the nodes they list, and then exactly those nodes.
func FuzzPlacementAllocate(f *testing.F) {
	f.Add(uint8(3), uint8(4), int64(1), []byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x06, 0x77})
	f.Add(uint8(0x85), uint8(7), int64(2), []byte{0xf0, 0x11, 0xa2, 0x13, 0x94, 0x25, 0x36, 0xe7, 0x18, 0x06})
	f.Add(uint8(1), uint8(1), int64(3), []byte{0x00, 0x07})
	f.Add(uint8(2), uint8(0x42), int64(4), []byte{0xc4, 0xf4, 0x01, 0x94, 0x02, 0xe5, 0x0b, 0xd4, 0x00, 0x03, 0xfc, 0x01, 0x74, 0x08, 0xa4})    // 3 leaves of 65
	f.Add(uint8(0x83), uint8(0x42), int64(5), []byte{0xf4, 0xfc, 0x02, 0x02, 0xf4, 0x00, 0x0b, 0x01, 0xb5, 0x03, 0xec, 0xf4, 0x10, 0x97, 0xd6}) // 4 x 4 leaves of 65
	f.Fuzz(func(t *testing.T, leaves, npl uint8, seed int64, ops []byte) {
		spec := topology.Spec{NodesPerLeaf: 1 + int(npl%8), Fanouts: []int{1 + int(leaves&0x7f)%6}}
		scale := 1
		if npl&0x40 != 0 { // leaves of 63 to 70 nodes, filled across the word boundary in a few takes
			spec.NodesPerLeaf, scale = spec.NodesPerLeaf+62, 5
		}
		if leaves&0x80 != 0 {
			spec.Fanouts = append(spec.Fanouts, 2+int(npl%3))
		}
		topo, err := topology.Generate(spec)
		if err != nil {
			t.Fatalf("generate %+v: %v", spec, err)
		}
		p := newPair(t, topo)
		rng := rand.New(rand.NewSource(seed))
		n, nl := topo.NumNodes(), topo.NumLeaves()
		next := JobID(1)
		var live []JobID
		for i, b := range ops {
			what := fmt.Sprintf("op %d (%#02x)", i, b)
			id := rng.Intn(n)
			switch b & 7 {
			case 0:
				if len(live) > 0 {
					k := int(b>>3) % len(live)
					p.release(what, live[k])
					live = append(live[:k], live[k+1:]...)
				}
				continue
			case 1:
				p.both(what, func(s *State) error { return s.Drain(id) })
				continue
			case 2:
				for _, victim := range p.fail(what, id) {
					live = slices.DeleteFunc(live, func(j JobID) bool { return j == victim })
				}
				continue
			case 3:
				if b&8 != 0 {
					p.both(what, func(s *State) error { return s.Resume(id) })
				} else {
					p.both(what, func(s *State) error { return s.Repair(id) })
				}
				continue
			}
			order := rng.Perm(nl)[:1+rng.Intn(nl)]
			if b&8 != 0 {
				order = append(order, order[0]) // revisit a leaf
			}
			pl := leafByLeaf(p.opt, order, scale*(1+int(b>>4)))
			if pl.Len() == 0 {
				continue
			}
			nodes := slices.Clone(pl.Nodes())
			switch b & 7 {
			case 4: // selector-shaped: as the list, as free-rank runs, or as runs gone wrong
				switch rng.Intn(3) {
				case 1:
					pl = freeRankByLeaf(p.opt, order, scale*(1+int(b>>4)))
				case 2:
					bad := corruptRuns(rng, freeRankByLeaf(p.opt, order, scale*(1+int(b>>4))), nl)
					list := listed(bad)
					bare := NewPlacement(list)
					scan := list != nil && bare.Validate(p.opt, next, new(Scratch)) == nil
					if err := p.opt.AllocatePlacement(next, Class(b>>3&1), &bad); err != nil {
						p.check(what+": refused runs", nil, nil)
						continue
					}
					if !scan {
						t.Fatalf("%s: runs %x after free ranks %v were committed, but the node scan rejects their list %v", what, bad.runs, bad.skip, list)
					}
					p.check(what+": runs that stayed valid", nil, p.ref.allocateRef(next, Class(b>>3&1), list))
					live = append(live, next)
					next++
					continue
				}
			case 5:
				rng.Shuffle(len(nodes), func(x, y int) { nodes[x], nodes[y] = nodes[y], nodes[x] })
				pl = NewPlacement(nodes)
			case 6:
				nodes[rng.Intn(len(nodes))] = nodes[0] // repeats an ID unless it hit index 0
				pl = NewPlacement(nodes)
			case 7:
				nodes[rng.Intn(len(nodes))] = []int{id, n + id, -1 - id}[rng.Intn(3)] // any node, or out of range
				pl = NewPlacement(nodes)
			}
			if p.allocate(what, next, Class(b>>3&1), pl) == nil {
				live = append(live, next)
				next++
			}
		}
		for _, job := range live {
			p.release("final release", job)
		}
	})
}

// corruptRuns damages a copy of a free-rank placement's runs or free ranks
// in one of the ways TestRunValidatorAgreesWithNodeScan names.
func corruptRuns(rng *rand.Rand, pl Placement, leaves int) Placement {
	runs, skip := slices.Clone(pl.runs), slices.Clone(pl.skip)
	i, j := rng.Intn(len(skip)), rng.Intn(len(skip))
	switch rng.Intn(8) {
	case 0:
		skip[i] += uint64(1 + rng.Intn(3))
	case 1:
		skip[i] = 0
	case 2:
		runs[len(runs)-1] += uint64(1 + rng.Intn(2))
	case 3:
		runs[len(runs)-1]--
	case 4:
		runs[i] = uint64(leaves+rng.Intn(2))<<32 | runs[i]&(1<<32-1)
	case 5:
		runs[i] = runs[j]&^(1<<32-1) | runs[i]&(1<<32-1) // run i moves to run j's leaf
	case 6:
		runs[0]++
	case 7:
		skip = skip[:len(skip)-1]
	}
	return FreeRankRuns(pl.st, runs, skip)
}

// BenchmarkAllocateReleaseIntrepid is the wide-job case the per-run path
// exists for: 4,096 nodes of Intrepid in 20 leaf runs visited in a
// non-ascending leaf order, as a selector emits them. /opt commits the
// listed placement (node scan included, one bit set per node), /runs the same
// selection as unlisted free-rank runs (validated by its runs, picked by
// word, no node named), /ref is the node-by-node reference.
func BenchmarkAllocateReleaseIntrepid(b *testing.B) {
	topo := topology.Intrepid()
	s := New(topo)
	per := 4096 / 20
	var order []int
	for i := 0; i < 20; i++ {
		order = append(order, (i*37+11)%topo.NumLeaves())
	}
	pl := leafByLeaf(s, order, per+1)
	pl = withRuns(pl.nodes[:4096:4096], append(slices.Clone(pl.runs[:len(pl.runs)-1]), 4096))
	if err := pl.Validate(s, 0, new(Scratch)); err != nil {
		b.Fatal(err)
	}
	skip := make([]uint64, len(pl.runs)-1) // every leaf is idle and visited once
	if free := FreeRankRuns(s, pl.runs, skip); !slices.Equal(free.Nodes(), pl.nodes) {
		b.Fatal("the free-rank fixture lists other nodes")
	}
	b.Run("opt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh := withRuns(pl.nodes, pl.runs) // unstamped: the commit pays for its scan
			if err := s.AllocatePlacement(JobID(i), CommIntensive, &fresh); err != nil {
				b.Fatal(err)
			}
			if err := s.Release(JobID(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("runs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh := FreeRankRuns(s, pl.runs, skip)
			if err := s.AllocatePlacement(JobID(i), CommIntensive, &fresh); err != nil {
				b.Fatal(err)
			}
			if err := s.Release(JobID(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ref", func(b *testing.B) {
		s := newRefState(s)
		for i := 0; i < b.N; i++ {
			if err := s.allocateRef(JobID(i), CommIntensive, pl.nodes); err != nil {
				b.Fatal(err)
			}
			if err := s.releaseRef(JobID(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
