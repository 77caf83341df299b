package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/topology"
)

// freeRankByLeaf is leafByLeaf by arithmetic, the way the selectors build a
// placement now: up to take of each listed leaf's allocatable nodes in
// turn, a revisit carrying on after what earlier visits took, no node read.
func freeRankByLeaf(s *State, leaves []int, take int) Placement {
	var runs, skip []uint64
	taken := map[int]int{}
	n := 0
	for _, l := range leaves {
		k := min(take, s.LeafFree(l)-taken[l])
		if k <= 0 {
			continue
		}
		if r := len(runs); r == 0 || int(runs[r-1]>>32) != l {
			runs = append(runs, uint64(l)<<32|uint64(n))
			skip = append(skip, uint64(taken[l]))
		}
		taken[l] += k
		n += k
	}
	if skip == nil {
		skip = []uint64{}
	}
	return FreeRankRuns(s, append(runs, uint64(n)), skip)
}

// listed returns what Nodes lists for pl without listing pl itself.
func listed(pl Placement) []int { return pl.Nodes() }

// fragment drains, fails and occupies random nodes of p's two states, and
// releases some of the jobs again so that leaves have holes in the middle.
func fragment(p *pair, rng *rand.Rand, rounds int) (live []JobID) {
	n, nl := p.opt.topo.NumNodes(), p.opt.topo.NumLeaves()
	for i := 0; i < rounds; i++ {
		id, what := rng.Intn(n), fmt.Sprintf("fragment %d", i)
		switch rng.Intn(6) {
		case 0:
			p.both(what, func(s *State) error { return s.Drain(id) })
		case 1:
			for _, v := range p.fail(what, id) {
				live = slices.DeleteFunc(live, func(j JobID) bool { return j == v })
			}
		case 2:
			p.both(what, func(s *State) error { return s.Repair(id) })
		case 3:
			if len(live) > 0 {
				k := rng.Intn(len(live))
				p.release(what, live[k])
				live = slices.Delete(live, k, k+1)
			}
		default:
			pl := leafByLeaf(p.opt, rng.Perm(nl)[:1+rng.Intn(nl)], 1+rng.Intn(3))
			if job := JobID(1000 + i); pl.Len() > 0 && p.allocate(what, job, Class(i&1), pl) == nil {
				live = append(live, job)
			}
		}
	}
	return live
}

// TestRunFormListsWhatTheSelectorsListed is the equivalence the free-rank
// form rests on: on machines with drained, failed and busy nodes and holes
// in the middle of leaves, a placement built by counting lists the nodes,
// and commits the ascending Allocation.Nodes and every counter, that the
// node-by-node builder and the node-by-node Allocate produce.
func TestRunFormListsWhatTheSelectorsListed(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := topology.Spec{NodesPerLeaf: 2 + rng.Intn(7), Fanouts: []int{2 + rng.Intn(3), 1 + rng.Intn(3)}}
		p := newPair(t, topology.MustGenerate(spec))
		fragment(p, rng, 30)
		nl := p.opt.topo.NumLeaves()
		if err := sameCounts(p.opt); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for job := JobID(1); job <= 6; job++ {
			order := rng.Perm(nl)[:1+rng.Intn(nl)]
			if rng.Intn(2) == 0 {
				order = append(order, order[rng.Intn(len(order))]) // revisit, as balanced's second pass does
			}
			take := 1 + rng.Intn(spec.NodesPerLeaf)
			want, got := leafByLeaf(p.opt, order, take), freeRankByLeaf(p.opt, order, take)
			what := fmt.Sprintf("seed %d job %d: leaves %v, %d each", seed, job, order, take)
			if got.Len() != len(want.nodes) || !slices.Equal(got.runs, want.runs) {
				t.Fatalf("%s: %d ranks in runs %x, the node-by-node builder has %d in %x", what, got.Len(), got.runs, len(want.nodes), want.runs)
			}
			if got.Len() == 0 {
				continue
			}
			if nodes := listed(got); !slices.Equal(nodes, want.nodes) {
				t.Fatalf("%s: Nodes() = %v, the node-by-node builder lists %v", what, nodes, want.nodes)
			}
			if got.nodes != nil {
				t.Fatalf("%s: listing a copy listed the placement", what)
			}
			// pair.allocate commits the unlisted runs on one state and the
			// list, node by node, on the other, and compares everything.
			if err := p.allocate(what, job, Class(job&1), got); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
}

// sameCounts checks the fact checkRuns leans on: LeafFree(l) is the number
// of nodes of l that NodeFree reports.
func sameCounts(s *State) error {
	for l := 0; l < s.topo.NumLeaves(); l++ {
		if got := len(freeOnLeaf(s, l)); got != s.LeafFree(l) {
			return fmt.Errorf("leaf %d: LeafFree %d, %d allocatable nodes", l, s.LeafFree(l), got)
		}
	}
	return nil
}

// scanAccepts is the per-node validator's verdict on the nodes a free-rank
// placement lists: false too when no list answers to its runs.
func scanAccepts(s *State, pl Placement) bool {
	nodes := listed(pl)
	if nodes == nil {
		return false
	}
	bare := NewPlacement(nodes)
	return bare.Validate(s, 1, new(Scratch)) == nil
}

// TestRunValidatorAgreesWithNodeScan holds the O(runs) validator against
// the node scan of the listed nodes, on well-formed run sequences and on
// every way one can be corrupted. The run validator may be stricter (it
// wants a revisited leaf's runs in increasing free-rank order, which every
// selector gives it) but never accepts what the scan rejects.
func TestRunValidatorAgreesWithNodeScan(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 6, Fanouts: []int{4}}) // leaves 0..3, nodes 6l..6l+5
	s := New(topo)
	for _, id := range []int{7, 13} { // mid-leaf holes on leaves 1 and 2
		if err := s.Drain(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Fail(20); err != nil {
		t.Fatal(err)
	}
	if err := s.Allocate(9, CommIntensive, []int{0, 1, 9, 14}); err != nil {
		t.Fatal(err)
	}
	// Allocatable: leaf 0 {2,3,4,5}, leaf 1 {6,8,10,11}, leaf 2 {12,15,16,17}, leaf 3 {18,19,21,22,23}.
	run := func(l, first int) uint64 { return uint64(l)<<32 | uint64(first) }
	for _, c := range []struct {
		name       string
		runs, skip []uint64
		ok         bool
		stricter   bool // valid nodes in an order the run validator refuses
	}{
		{"one leaf", []uint64{run(3, 0), 5}, []uint64{0}, true, false},
		{"three leaves, out of index order", []uint64{run(2, 0), run(0, 3), run(3, 5), 9}, []uint64{1, 0, 0}, true, false},
		{"revisit, second pass carries on", []uint64{run(1, 0), run(3, 2), run(1, 4), 6}, []uint64{0, 0, 2}, true, false},
		{"revisit with a gap", []uint64{run(1, 0), run(3, 1), run(1, 3), 4}, []uint64{0, 0, 3}, true, false},
		{"overlapping free ranks on one leaf", []uint64{run(1, 0), run(3, 2), run(1, 4), 6}, []uint64{0, 0, 1}, false, false},
		{"same free ranks twice", []uint64{run(0, 0), run(2, 2), run(0, 3), 5}, []uint64{1, 0, 1}, false, false},
		{"free rank + k past LeafFree", []uint64{run(0, 0), run(2, 2), 5}, []uint64{3, 0}, false, false},
		{"skip past LeafFree", []uint64{run(0, 0), 1}, []uint64{4}, false, false},
		{"skip wraps around", []uint64{run(0, 0), 2}, []uint64{1<<64 - 1}, false, false},
		{"leaf out of range", []uint64{run(0, 0), run(4, 2), 3}, []uint64{0, 0}, false, false},
		{"empty run", []uint64{run(0, 0), run(2, 2), run(3, 2), 4}, []uint64{0, 0, 0}, false, false},
		{"ranks out of order", []uint64{run(0, 0), run(2, 3), run(3, 2), 5}, []uint64{0, 0, 0}, false, false},
		{"closing count too large", []uint64{run(0, 0), run(3, 2), 8}, []uint64{0, 0}, false, false},
		{"closing count too small", []uint64{run(0, 0), run(3, 2), 2}, []uint64{0, 0}, false, false},
		{"closing word carries a leaf", []uint64{run(0, 0), run(3, 2)}, []uint64{0}, false, false},
		{"first rank not 0", []uint64{run(0, 1), run(3, 2), 4}, []uint64{0, 0}, false, false},
		{"more free ranks than runs", []uint64{run(0, 0), 2}, []uint64{0, 0}, false, false},
		{"fewer free ranks than runs", []uint64{run(0, 0), run(3, 2), 4}, []uint64{0}, false, false},
		{"decreasing free rank on a revisited leaf", []uint64{run(1, 0), run(3, 2), run(1, 3), 5}, []uint64{2, 0, 0}, false, true},
	} {
		pl := FreeRankRuns(s, c.runs, c.skip)
		scan := scanAccepts(s, pl)
		before := s.Clone()
		before.gen = s.gen
		err := pl.Validate(s, 1, new(Scratch))
		if (err == nil) != c.ok {
			t.Errorf("%s: run validator says %v, want accepted=%v", c.name, err, c.ok)
		}
		if scan != (c.ok || c.stricter) {
			t.Errorf("%s: node scan accepted=%v, want %v", c.name, scan, c.ok || c.stricter)
		}
		if err == nil && !scan {
			t.Errorf("%s: the run validator accepted what the node scan rejects", c.name)
		}
		if (err == nil) != pl.valid {
			t.Errorf("%s: verdict %v but stamped valid=%v", c.name, err, pl.valid)
		}
		// The commit takes the same verdict and, refusing, changes nothing.
		fresh := FreeRankRuns(s, c.runs, c.skip)
		if aerr := s.AllocatePlacement(1, CommIntensive, &fresh); (aerr == nil) != c.ok {
			t.Errorf("%s: AllocatePlacement says %v, want accepted=%v", c.name, aerr, c.ok)
		} else if aerr != nil {
			if err := sameState(s, before); err != nil {
				t.Errorf("%s: refused commit changed the state: %v", c.name, err)
			}
		} else if err := s.Release(1); err != nil {
			t.Fatal(err)
		}
	}

	// The job checks come first and run on every call, as for a list.
	pl := FreeRankRuns(s, []uint64{run(3, 0), 2}, []uint64{0})
	var sc Scratch
	for job, want := range map[JobID]string{-1: "job IDs must be non-negative", 9: "already allocated"} {
		if err := pl.Validate(s, job, &sc); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("job %d: %v, want %q", job, err, want)
		}
	}
	if err := pl.Validate(s, 1, &sc); err != nil || !pl.valid {
		t.Fatalf("valid placement: %v, stamped %v", err, pl.valid)
	}
	if err := pl.Validate(s, -1, &sc); err == nil {
		t.Error("stamped free-rank placement accepted a negative job ID")
	}
	empty := FreeRankRuns(s, []uint64{0}, []uint64{})
	if err := empty.Validate(s, 1, &sc); err == nil || !strings.Contains(err.Error(), "empty allocation") {
		t.Errorf("empty free-rank placement: %v", err)
	}
}

// TestRunStoreReuseFailsLoudly pins the RunStore contract: a placement kept
// in a store is valid until the store's next Place, and after that —
// listed or not, at the generation it was selected on — validating and
// committing it fail with ErrReusedPlacement, which is not a "select
// again" condition, and it has no ranks. The generation alone cannot
// catch this: nothing moved the state between the two selections.
func TestRunStoreReuseFailsLoudly(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 4, Fanouts: []int{4}})
	s := New(topo)
	var rs RunStore
	// Leaves 0 and 1 first, then leaves 2 and 3: both fit the unchanged state.
	first := rs.Place(s, []uint64{0<<32 | 0, 1<<32 | 2, 4}, []uint64{0, 0})
	listedFirst := rs.Place(s, []uint64{0<<32 | 0, 1<<32 | 2, 4}, []uint64{0, 0})
	want := slices.Clone(listedFirst.Nodes())
	gen := s.Generation()
	second := rs.Place(s, []uint64{2<<32 | 0, 3<<32 | 2, 4}, []uint64{0, 0})
	if s.Generation() != gen {
		t.Fatal("placing moved the generation")
	}
	for name, pl := range map[string]*Placement{"unlisted": &first, "listed": &listedFirst} {
		var sc Scratch
		if err := pl.Validate(s, 1, &sc); !errors.Is(err, ErrReusedPlacement) || errors.Is(err, ErrNodeUnavailable) {
			t.Errorf("%s: validating a placement whose store was reused: %v, want ErrReusedPlacement alone", name, err)
		}
		if err := s.AllocatePlacement(1, CommIntensive, pl); !errors.Is(err, ErrReusedPlacement) {
			t.Errorf("%s: committing a placement whose store was reused: %v, want ErrReusedPlacement", name, err)
		}
		if s.FreeTotal() != topo.NumNodes() {
			t.Fatalf("%s: a rejected commit took %d nodes", name, topo.NumNodes()-s.FreeTotal())
		}
		if pl.SameNodes(&second) || second.SameNodes(pl) {
			t.Errorf("%s: a reused placement compares equal to its successor", name)
		}
	}
	if first.Len() != 0 || first.Nodes() != nil {
		t.Errorf("unlisted reused placement: %d ranks, nodes %v; want none", first.Len(), first.Nodes())
	}
	if got := listedFirst.Nodes(); !slices.Equal(got, want) {
		t.Errorf("a listed placement's own list changed with its store: %v, want %v", got, want)
	}
	if err := s.AllocatePlacement(2, CommIntensive, &second); err != nil {
		t.Fatal(err)
	}
	if got := s.Allocation(2).Nodes(); !slices.Equal(got, []int{8, 9, 12, 13}) {
		t.Errorf("the store's current placement committed %v, want [8 9 12 13]", got)
	}
}
