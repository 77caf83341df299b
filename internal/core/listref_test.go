package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
	"repro/internal/topology"
)

// The list-building selectors the free-rank ones replaced, kept as their
// oracle: the same leaf orders and take counts, but every candidate written
// out node by node through NodeFree, balanced's second pass filtering out
// what the first chose. selectRef(alg) must return exactly what
// Place(alg).Nodes() lists.

// cmpFreeAsc orders by ascending free count (best-fit), then leaf index:
// the oracle of sortLeaves' freeAsc keys.
func cmpFreeAsc(a, b leafOrder) int {
	if a.free != b.free {
		return a.free - b.free
	}
	return a.leaf - b.leaf
}

// cmpFreeDesc orders by descending free count, then leaf index: the oracle
// of sortLeaves' freeDesc keys.
func cmpFreeDesc(a, b leafOrder) int {
	if a.free != b.free {
		return b.free - a.free
	}
	return a.leaf - b.leaf
}

// takeFromLeaf appends up to max free nodes of leaf l (ascending node ID).
func takeFromLeaf(st *cluster.State, l, max int, dst []int) []int {
	first := len(dst)
	for _, id := range st.Topology().LeafNodes(l) {
		if len(dst)-first >= max {
			break
		}
		if st.NodeFree(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// appendAvoiding appends up to max free nodes of leaf l not already in dst.
func appendAvoiding(st *cluster.State, l, max int, dst []int) []int {
	first := len(dst)
	for _, id := range st.Topology().LeafNodes(l) {
		if len(dst)-first >= max {
			break
		}
		if st.NodeFree(id) && !slices.Contains(dst, id) {
			dst = append(dst, id)
		}
	}
	return dst
}

func listInOrder(st *cluster.State, req Request, cmp func(a, b leafOrder) int) ([]int, error) {
	p, err := findLowestSwitch(st, req.Nodes)
	if err != nil {
		return nil, err
	}
	order := snapshotLeaves(st, p.DescLeaves, new(Scratch))
	slices.SortFunc(order, cmp)
	var out []int
	for _, lo := range order {
		out = takeFromLeaf(st, lo.leaf, min(lo.free, req.Nodes-len(out)), out)
	}
	if len(out) != req.Nodes {
		return nil, fmt.Errorf("listInOrder: found %d of %d nodes", len(out), req.Nodes)
	}
	return out, nil
}

func listBalanced(st *cluster.State, req Request, pow2 bool) ([]int, error) {
	if req.Class != cluster.CommIntensive {
		return listInOrder(st, req, cmpFreeAsc)
	}
	p, err := findLowestSwitch(st, req.Nodes)
	if err != nil {
		return nil, err
	}
	order := snapshotLeaves(st, p.DescLeaves, new(Scratch))
	slices.SortFunc(order, cmpFreeDesc)
	var out []int
	taken := make([]int, len(order))
	remaining, allocSize := req.Nodes, req.Nodes
	for i, lo := range order {
		if lo.free == 0 {
			continue
		}
		if pow2 {
			for allocSize > lo.free {
				allocSize /= 2
			}
		} else {
			allocSize = lo.free
		}
		take := min(allocSize, remaining)
		out = takeFromLeaf(st, lo.leaf, take, out)
		taken[i] = take
		remaining -= take
	}
	for i := len(order) - 1; i >= 0 && remaining > 0; i-- {
		take := min(order[i].free-taken[i], remaining)
		if take <= 0 {
			continue
		}
		out = appendAvoiding(st, order[i].leaf, take, out)
		remaining -= take
	}
	if len(out) != req.Nodes {
		return nil, fmt.Errorf("listBalanced: found %d of %d nodes", len(out), req.Nodes)
	}
	return out, nil
}

// selectRef is the list-building selection of the five selectors the
// free-rank form covers.
func selectRef(a Algorithm, st *cluster.State, req Request) ([]int, error) {
	greedy := cmpGreedyCompute
	if req.Class == cluster.CommIntensive {
		greedy = cmpGreedyComm
	}
	switch a {
	case Default:
		return listInOrder(st, req, cmpFreeAsc)
	case Greedy:
		return listInOrder(st, req, greedy)
	case Balanced, BalancedNoPow2:
		return listBalanced(st, req, a == Balanced)
	case Adaptive:
		g, err := listInOrder(st, req, greedy)
		if err != nil {
			return nil, err
		}
		b, err := listBalanced(st, req, true)
		if err != nil {
			return nil, err
		}
		costG, err := costmodel.CandidateCostMode(st, req.Job, req.Class, g, req.Pattern, costmodel.ModeEffectiveHops)
		if err != nil {
			return nil, err
		}
		costB, err := costmodel.CandidateCostMode(st, req.Job, req.Class, b, req.Pattern, costmodel.ModeEffectiveHops)
		if err != nil {
			return nil, err
		}
		if (req.Class == cluster.CommIntensive && costG < costB) || (req.Class != cluster.CommIntensive && costG > costB) {
			return g, nil
		}
		return b, nil
	}
	return nil, fmt.Errorf("selectRef: no list-building form of %v", a)
}

// outOfOrderConf is a topology.conf whose switches list their children out
// of file order: a switch's DescLeaves is not ascending, so a free-count
// order that broke ties on the position in it, not on the leaf index, would
// visit tied leaves in another order than the oracle's comparators.
const outOfOrderConf = `
SwitchName=l0 Nodes=n[0-3]
SwitchName=l1 Nodes=n[4-7]
SwitchName=l2 Nodes=n[8-11]
SwitchName=l3 Nodes=n[12-15]
SwitchName=l4 Nodes=n[16-19]
SwitchName=l5 Nodes=n[20-23]
SwitchName=m0 Switches=l3,l1,l5
SwitchName=m1 Switches=l4,l0,l2
SwitchName=top Switches=m1,m0
`

// TestPlaceListsWhatTheListSelectorsBuilt compares every selector's
// free-rank placement, listed, against its list-building original on
// machines with drained, failed and busy nodes scattered inside leaves:
// twelve generated ones, and four states of one parsed from a topology.conf
// that lists leaves out of index order.
func TestPlaceListsWhatTheListSelectorsBuilt(t *testing.T) {
	conf, err := topology.ParseConfig(strings.NewReader(outOfOrderConf))
	if err != nil {
		t.Fatal(err)
	}
	if slices.IsSorted(conf.Root.DescLeaves) {
		t.Fatalf("the parsed switches list their leaves in index order %v", conf.Root.DescLeaves)
	}
	for seed := int64(1); seed <= 16; seed++ {
		rng := randNew(seed)
		topo := conf
		if seed <= 12 {
			topo = topology.MustGenerate(topology.Spec{NodesPerLeaf: 3 + rng.Intn(14), Fanouts: []int{2 + rng.Intn(4), 1 + rng.Intn(4)}})
		}
		st := cluster.New(topo)
		n := topo.NumNodes()
		var busy, comm []int
		for id := 0; id < n; id++ {
			switch rng.Intn(8) {
			case 0:
				busy = append(busy, id)
			case 1:
				comm = append(comm, id)
			case 2:
				if err := st.Drain(id); err != nil {
					t.Fatal(err)
				}
			case 3:
				if _, err := st.Fail(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		for job, nodes := range [][]int{busy, comm} {
			if len(nodes) == 0 {
				continue
			}
			if err := st.Allocate(cluster.JobID(900+job), cluster.Class(job), nodes); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range []Algorithm{Default, Greedy, Balanced, BalancedNoPow2, Adaptive} {
			for _, class := range []cluster.Class{cluster.CommIntensive, cluster.ComputeIntensive} {
				for _, want := range []int{1, 2, st.FreeTotal() / 3, st.FreeTotal() - 1, st.FreeTotal()} {
					if want < 1 {
						continue
					}
					req := Request{Job: 1, Nodes: want, Class: class, Pattern: collective.RHVD}
					ref, err := selectRef(a, st, req)
					if err != nil {
						t.Fatalf("seed %d %v/%v/%d: %v", seed, a, class, want, err)
					}
					pl, _, err := Place(MustNew(a), st, req, nil)
					if err != nil {
						t.Fatalf("seed %d %v/%v/%d: %v", seed, a, class, want, err)
					}
					if got := pl.Nodes(); !slices.Equal(got, ref) {
						t.Fatalf("seed %d %v/%v/%d: free-rank runs list %v, the list builder chose %v", seed, a, class, want, got, ref)
					}
				}
			}
		}
	}
}

// TestAdaptivePricesRunsWithoutListing runs adaptive selections of a wide
// job from several goroutines over one shared state, each in a scratch of
// its own (run it under -race: validation, the compile and both pricings
// must only read the state and their own candidates), and checks that
// nothing on the way listed a candidate: once the scratches are warm the
// whole selection allocates far less than one node list.
func TestAdaptivePricesRunsWithoutListing(t *testing.T) {
	st := intrepidState(t, 16384)
	sel := MustNew(Adaptive)
	const workers, rounds, nodes = 4, 6, 16384
	place := func(job cluster.JobID, sc *Scratch) cluster.Placement {
		pl, _, err := Place(sel, st, Request{Job: job, Nodes: nodes, Class: cluster.CommIntensive, Pattern: collective.RD}, sc)
		if err != nil || pl.Len() != nodes {
			t.Errorf("job %d: %d ranks, %v", job, pl.Len(), err)
		}
		return pl
	}
	scratches := make([]*Scratch, workers)
	for w := range scratches {
		scratches[w] = new(Scratch)
		place(0, scratches[w]) // warms the schedule memo and the scratch
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				place(cluster.JobID(1+w*rounds+r), scratches[w])
			}
		}(w)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	if perPlace, list := (after.TotalAlloc-before.TotalAlloc)/(workers*rounds), uint64(8*nodes); perPlace > list/4 {
		t.Errorf("an adaptive Place of %d nodes allocated %d bytes; one node list is %d, so something listed a candidate", nodes, perPlace, list)
	}
	first := place(0, new(Scratch))
	// The winner lists on request, and to what the list builder chooses.
	ref, err := selectRef(Adaptive, st, Request{Job: 0, Nodes: nodes, Class: cluster.CommIntensive, Pattern: collective.RD})
	if err != nil || !slices.Equal(first.Nodes(), ref) {
		t.Errorf("the winner lists other nodes than the list-building adaptive chose (%v)", err)
	}
}
