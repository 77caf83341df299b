package cluster

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/topology"
)

// mixedLeaves is a three-level machine whose leaves hold 1, 63, 64, 65, 320
// (Intrepid's) and 130 nodes: no word, one word less a bit, exactly one, one
// and a bit, five exactly, two and a bit.
func mixedLeaves(t testing.TB) *topology.Topology {
	t.Helper()
	var conf strings.Builder
	first := 0
	for l, size := range []int{1, 63, 64, 65, 320, 130} {
		fmt.Fprintf(&conf, "SwitchName=leaf%d Nodes=n[%d-%d]\n", l, first, first+size-1)
		first += size
	}
	conf.WriteString("SwitchName=mid0 Switches=leaf[0-2]\nSwitchName=mid1 Switches=leaf[3-5]\nSwitchName=root Switches=mid[0-1]\n")
	topo, err := topology.ParseConfig(strings.NewReader(conf.String()))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// An allocation kept past its release still names the job's nodes: Release
// forgets it without touching its masks, and later commits of the same nodes
// (the state's mask scratch reused) build masks of their own.
func TestAllocationOutlivesRelease(t *testing.T) {
	s := New(mixedLeaves(t))
	var nodes []int
	for l := 1; l < s.topo.NumLeaves(); l++ {
		ids := s.topo.LeafNodes(l)
		nodes = append(nodes, ids[l%len(ids)], ids[len(ids)-1])
	}
	slices.Sort(nodes)
	if err := s.Allocate(1, CommIntensive, nodes); err != nil {
		t.Fatal(err)
	}
	a := s.Allocation(1)
	masks := slices.Clone(a.masks)
	check := func(when string) {
		t.Helper()
		if got := a.Nodes(); !slices.Equal(got, nodes) || !slices.Equal(a.masks, masks) {
			t.Fatalf("%s: the allocation names %v (masks changed: %v), want %v", when, got, !slices.Equal(a.masks, masks), nodes)
		}
	}
	check("held")
	if err := s.Release(1); err != nil {
		t.Fatal(err)
	}
	check("after the release")
	if err := s.Allocate(2, ComputeIntensive, nodes[1:]); err != nil {
		t.Fatal(err)
	}
	var rest []int
	for id := 0; id < s.topo.NumNodes(); id++ {
		if s.NodeFree(id) {
			rest = append(rest, id)
		}
	}
	if err := s.Allocate(3, CommIntensive, rest); err != nil {
		t.Fatal(err)
	}
	check("after other jobs took the same nodes")
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// walkRanks is the node-by-node walk the bit selector replaced: the k
// allocatable nodes of ids after the first skip of them.
func walkRanks(s *State, ids []int, skip, k int) (out []int) {
	for _, id := range ids {
		switch {
		case !s.NodeFree(id):
		case skip > 0:
			skip--
		case k > 0:
			out = append(out, id)
			k--
		}
	}
	return out
}

// TestPickRanks holds the word-level selector against a bit-by-bit count on
// words with holes, and the leaf-level one (listing and commit) against the
// node-by-node walk with skip and k on, before and after every word
// boundary, over busy and drained holes, up to skip+k = LeafFree.
func TestPickRanks(t *testing.T) {
	for _, free := range []uint64{0, 1, 1 << 63, ^uint64(0), 0xf0f0_0000_ffff_0001, 0x8000_0000_0000_0001, 0x5555_5555_5555_5555} {
		c := bits.OnesCount64(free)
		for skip := 0; skip <= c+2; skip++ {
			for k := 0; k <= c+2; k++ {
				var want uint64
				rank := 0
				for b := 0; b < 64; b++ {
					if free>>b&1 != 0 {
						if rank >= skip && rank < skip+k {
							want |= 1 << b
						}
						rank++
					}
				}
				got, skipLeft, kLeft := pickRanks(free, skip, k)
				if got != want || skipLeft != max(skip-c, 0) || kLeft != k-bits.OnesCount64(want) {
					t.Fatalf("pickRanks(%#x, %d, %d) = %#x, %d, %d; want %#x, %d, %d", free, skip, k, got, skipLeft, kLeft, want, max(skip-c, 0), k-bits.OnesCount64(want))
				}
			}
		}
	}

	topo := mixedLeaves(t)
	s := New(topo)
	const leaf = 4 // 320 nodes: words 0..4 of the leaf, all full
	ids := topo.LeafNodes(leaf)
	for _, at := range []int{0, 5, 62, 63, 64, 127, 128, 130, 200, 319} { // busy holes, some on word edges
		if err := s.Allocate(JobID(at), ComputeIntensive, []int{ids[at]}); err != nil {
			t.Fatal(err)
		}
	}
	for _, at := range []int{1, 65, 191, 192, 318} { // drained holes
		if err := s.Drain(ids[at]); err != nil {
			t.Fatal(err)
		}
	}
	free := s.LeafFree(leaf)
	if free != 320-15 {
		t.Fatalf("LeafFree = %d", free)
	}
	for _, skip := range []int{0, 1, 59, 60, 61, 62, 63, 64, 65, 121, 122, 123, 128, 200, free - 1, free} {
		for _, k := range []int{0, 1, 2, 60, 61, 62, 63, 64, 65, 128, free - skip - 1, free - skip} {
			if k < 0 || skip+k > free {
				continue
			}
			want := walkRanks(s, ids, skip, k)
			if got := s.appendRanks(nil, leaf, skip, k); !slices.Equal(got, want) {
				t.Fatalf("appendRanks(skip %d, k %d) = %v, the walk takes %v", skip, k, got, want)
			}
			if k == 0 {
				continue
			}
			pl := FreeRankRuns(s, []uint64{leaf << 32, uint64(k)}, []uint64{uint64(skip)})
			if err := s.AllocatePlacement(1000, CommIntensive, &pl); err != nil {
				t.Fatalf("skip %d, k %d: %v", skip, k, err)
			}
			if got := s.Allocation(1000).Nodes(); !slices.Equal(got, want) {
				t.Fatalf("commit of free ranks [%d, %d) holds %v, the walk takes %v", skip, skip+k, got, want)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("skip %d, k %d: %v", skip, k, err)
			}
			if err := s.Release(1000); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMaskCommitMatchesPerNodeOracle interleaves, at random, every way the
// state moves — free-rank commits in the selectors' shapes (one run per leaf,
// balanced's second run on a leaf, whole leaves), caller lists in ascending
// and permuted rank order, Release, Drain, Resume, Fail, Repair — on leaves of
// 1, 63, 64, 65, 130 and 320 nodes and compares, after every step, every
// counter, bitmap, node query and Allocation.Nodes() with the node-by-node
// oracle's. (No topology this package can be handed has leaves whose ID
// ranges interleave: both constructors number nodes leaf by leaf.)
func TestMaskCommitMatchesPerNodeOracle(t *testing.T) {
	topos := []*topology.Topology{mixedLeaves(t),
		topology.MustGenerate(topology.Spec{NodesPerLeaf: 65, Fanouts: []int{3, 2}}),
		topology.MustGenerate(topology.Spec{NodesPerLeaf: 64, Fanouts: []int{5}})}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topo := topos[int(seed)%len(topos)]
		p := newPair(t, topo)
		n, nl := topo.NumNodes(), topo.NumLeaves()
		var live []JobID
		for step := 0; step < 120; step++ {
			id, job := rng.Intn(n), JobID(step)
			what := fmt.Sprintf("seed %d step %d", seed, step)
			order := rng.Perm(nl)[:1+rng.Intn(nl)]
			var pl Placement
			switch op := rng.Intn(12); op {
			case 0:
				p.both(what+": drain", func(s *State) error { return s.Drain(id) })
			case 1:
				p.both(what+": resume", func(s *State) error { return s.Resume(id) })
			case 2:
				for _, v := range p.fail(what+": fail", id) {
					live = slices.DeleteFunc(live, func(j JobID) bool { return j == v })
				}
			case 3:
				p.both(what+": repair", func(s *State) error { return s.Repair(id) })
			case 4, 5:
				if len(live) > 0 {
					k := rng.Intn(len(live))
					p.release(what+": release", live[k])
					live = slices.Delete(live, k, k+1)
				}
			case 6: // one run per leaf
				pl = freeRankByLeaf(p.opt, order, 1+rng.Intn(70))
			case 7: // balanced: a second pass carries on where the first stopped
				pl = freeRankByLeaf(p.opt, append(order, order...), 1+rng.Intn(40))
			case 8: // whole leaves
				pl = freeRankByLeaf(p.opt, order[:1+rng.Intn(min(2, len(order)))], 320)
			default: // a caller's list, ascending or rank-permuted
				nodes := slices.Clone(leafByLeaf(p.opt, order, 1+rng.Intn(70)).nodes)
				if op > 9 {
					rng.Shuffle(len(nodes), func(x, y int) { nodes[x], nodes[y] = nodes[y], nodes[x] })
				}
				pl = NewPlacement(nodes)
			}
			if pl.Len() > 0 && p.allocate(what+": allocate", job, Class(step&1), pl) == nil {
				live = append(live, job)
			}
		}
		clone := p.opt.Clone()
		clone.gen = p.opt.gen // a clone starts a history of its own
		if err := sameState(clone, p.opt); err != nil {
			t.Fatalf("seed %d: clone: %v", seed, err)
		}
		for _, job := range live {
			p.release("final release", job)
		}
		if err := sameState(p.opt, clone); err == nil && len(live) > 0 {
			t.Fatalf("seed %d: releasing on the original moved its clone", seed)
		}
	}
}

// TestCheckInvariantsCatchesMaskCorruption damages a consistent state in
// each of the ways only the mask representation can be wrong, and the one
// way both could.
func TestCheckInvariantsCatchesMaskCorruption(t *testing.T) {
	topo := mixedLeaves(t)
	lay := topo.Layout()
	first := func(l int) int { return topo.LeafNodes(l)[0] }
	for _, c := range []struct {
		name    string
		corrupt func(s *State)
		want    string
	}{
		{"node in two allocations", func(s *State) { s.allocs[2].masks[1] |= 1 }, "held by jobs 1 and 2"},
		{"header disagrees with its mask", func(s *State) { s.allocs[1].masks[0]++ }, "its header says 3"},
		{"size disagrees with the headers", func(s *State) { s.allocs[2].size-- }, "job 2 holds 3 nodes, allocation lists 2"},
		{"orphan busy bit", func(s *State) { s.busyBits[lay.LeafWordOff[4]+1] |= 1 << 7 }, "busy bit"},
		{"owner without a busy bit", func(s *State) { s.busyBits[lay.LeafWordOff[1]] &^= 1 }, "busy bit"},
		{"pad bit cleared", func(s *State) { s.busyBits[lay.LeafWordOff[3]+1] &^= 1 << 63 }, "leaf 3: pad bits disturbed"},
		{"pad bit drained", func(s *State) { s.downBits[lay.LeafWordOff[0]] |= 1 << 1 }, "leaf 0: pad bits disturbed"},
		{"pad bit held", func(s *State) { s.allocs[1].masks[1] |= 1 << 63; s.allocs[1].masks[0]++; s.allocs[1].size++ }, "job 1 holds pad bit 63 of leaf 1"},
		{"failed but not down", func(s *State) { s.failedBits[lay.LeafWordOff[2]] |= 1; s.failed++ }, "failed but not down"},
	} {
		s := New(topo)
		if err := s.Allocate(1, CommIntensive, []int{first(1), first(1) + 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.Allocate(2, ComputeIntensive, []int{first(1) + 2, first(3), first(3) + 64}); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(first(5)); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("before corruption: %v", err)
		}
		c.corrupt(s)
		if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants says %v, want it to mention %q", c.name, err, c.want)
		}
	}
}

// TestCommitAndReleaseAllocations pins what the mask commit costs the heap:
// a run-form placement is the mask words and the Allocation, whatever its
// width, and Release frees without allocating.
func TestCommitAndReleaseAllocations(t *testing.T) {
	s := New(topology.Intrepid())
	order := rand.New(rand.NewSource(1)).Perm(s.topo.NumLeaves())[:100]
	runs := freeRankByLeaf(s, order, 300)
	commit := func() {
		pl := FreeRankRuns(s, runs.runs, runs.skip)
		if err := s.AllocatePlacement(1, CommIntensive, &pl); err != nil {
			t.Fatal(err)
		}
	}
	commit() // grows the state's scratch
	if got := testing.AllocsPerRun(50, func() {
		if err := s.Release(1); err != nil {
			t.Fatal(err)
		}
		commit()
	}); got != 2 {
		t.Errorf("Release + AllocatePlacement of 30,000 nodes in 100 runs: %v allocations, want 2 (mask words, the Allocation)", got)
	}
	small := New(topology.Intrepid())
	for job := 0; job <= 10; job++ {
		if err := small.Allocate(JobID(job), Class(job&1), []int{job, 400 + job, 20000 + job}); err != nil {
			t.Fatal(err)
		}
	}
	next := JobID(0)
	if got := testing.AllocsPerRun(10, func() {
		if err := small.Release(next); err != nil {
			t.Fatal(err)
		}
		next++
	}); got != 0 {
		t.Errorf("Release: %v allocations, want 0", got)
	}
}

// BenchmarkCloneIntrepid copies a half-loaded Intrepid: 64 jobs of 320 nodes
// over two leaves each, three bitmaps, the counters.
func BenchmarkCloneIntrepid(b *testing.B) {
	s := New(topology.Intrepid())
	for job := 0; job < 64; job++ {
		pl := freeRankByLeaf(s, []int{2 * job, 2*job + 1}, 160)
		if err := s.AllocatePlacement(JobID(job), Class(job&1), &pl); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.Clone().FreeTotal() != s.FreeTotal() {
			b.Fatal("clone differs")
		}
	}
}
