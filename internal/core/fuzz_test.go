package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
	"repro/internal/topology"
)

// sameCounters compares everything two states expose about their
// bookkeeping: per-leaf counters, shares bit for bit, subtree free counts,
// the free total, the generation and every allocation's node list.
func sameCounters(a, b *cluster.State) error {
	topo := a.Topology()
	if a.FreeTotal() != b.FreeTotal() || a.Generation() != b.Generation() {
		return fmt.Errorf("free/generation %d/%d vs %d/%d", a.FreeTotal(), a.Generation(), b.FreeTotal(), b.Generation())
	}
	for l := 0; l < topo.NumLeaves(); l++ {
		if a.LeafBusy(l) != b.LeafBusy(l) || a.LeafComm(l) != b.LeafComm(l) ||
			math.Float64bits(a.CommShare(l)) != math.Float64bits(b.CommShare(l)) {
			return fmt.Errorf("leaf %d: busy %d comm %d share %v vs busy %d comm %d share %v", l,
				a.LeafBusy(l), a.LeafComm(l), a.CommShare(l), b.LeafBusy(l), b.LeafComm(l), b.CommShare(l))
		}
	}
	for _, sw := range topo.Switches {
		if a.SwitchFree(sw) != b.SwitchFree(sw) {
			return fmt.Errorf("switch %s free %d vs %d", sw.Name, a.SwitchFree(sw), b.SwitchFree(sw))
		}
	}
	for _, x := range a.RunningAllocations() {
		if y := b.Allocation(x.Job); y == nil || !slices.Equal(x.Nodes(), y.Nodes()) || !sort.IntsAreSorted(x.Nodes()) {
			return fmt.Errorf("job %d: nodes %v vs %+v", x.Job, x.Nodes(), y)
		}
	}
	return nil
}

// FuzzAllocate drives random allocate/release sequences through every
// selector over fuzzer-shaped machines and checks the contract the
// simulator depends on: Select succeeds exactly when the request fits the
// free node count, returns exactly the requested number of distinct free
// nodes, and the cluster state stays internally consistent after every
// commit and release. The selection is committed as the selector's own
// placement (unlisted free-rank runs: validated by run, nodes read off the
// leaves into the allocation) while a mirror state commits the nodes a copy
// of it lists as a reversed bare list (derived runs, node scan, sorted):
// the two must agree on every counter after every step, which a run the
// selector recorded wrongly would break. The listed nodes must also be
// exactly what the list-building selectors (listref_test.go) choose, and
// a price Place reports must be bit for bit a fresh pricing of its pick.
func FuzzAllocate(f *testing.F) {
	f.Add(uint8(2), uint8(4), []byte{0x13, 0x85, 0x04, 0x00, 0xff, 0x21})
	f.Add(uint8(5), uint8(7), []byte{0xfe, 0x01, 0x3c, 0x3c, 0x3c, 0x00, 0x00})
	f.Add(uint8(0x83), uint8(2), []byte{0x11, 0x92, 0x73, 0x54, 0x35, 0x16})
	f.Add(uint8(1), uint8(1), []byte{0x07})
	f.Fuzz(func(t *testing.T, leaves, npl uint8, ops []byte) {
		spec := topology.Spec{NodesPerLeaf: 1 + int(npl%8), Fanouts: []int{1 + int(leaves&0x7f)%6}}
		if leaves&0x80 != 0 {
			spec.Fanouts = append(spec.Fanouts, 2+int(npl%3))
		}
		topo, err := topology.Generate(spec)
		if err != nil {
			t.Fatalf("generate %+v: %v", spec, err)
		}
		st, mirror := cluster.New(topo), cluster.New(topo)
		machine := topo.NumNodes()
		algs := []Algorithm{Default, Greedy, Balanced, Adaptive, BalancedNoPow2}
		sels := make([]Selector, len(algs))
		for k, a := range algs {
			sels[k] = MustNew(a)
		}
		patterns := []collective.Pattern{collective.RD, collective.RHVD,
			collective.Binomial, collective.Ring}

		sc := new(Scratch) // one for the whole sequence, as an engine keeps it
		next := cluster.JobID(1)
		var live []cluster.JobID
		for i, b := range ops {
			if b&0x3 == 0 && len(live) > 0 {
				k := int(b>>2) % len(live)
				if err := st.Release(live[k]); err != nil {
					t.Fatalf("op %d: release job %d: %v", i, live[k], err)
				}
				if err := mirror.Release(live[k]); err != nil {
					t.Fatalf("op %d: mirror release job %d: %v", i, live[k], err)
				}
				live = append(live[:k], live[k+1:]...)
				if err := st.CheckInvariants(); err != nil {
					t.Fatalf("op %d: after release: %v", i, err)
				}
				if err := sameCounters(st, mirror); err != nil {
					t.Fatalf("op %d: after release: %v", i, err)
				}
				continue
			}
			req := Request{
				Job:     next,
				Nodes:   1 + int(b>>2)%(machine+2), // occasionally exceeds the machine
				Class:   cluster.Class(uint8(i) & 1),
				Pattern: patterns[i%len(patterns)],
			}
			sel := sels[i%len(sels)]
			free := st.FreeTotal()
			pl, price, err := Place(sel, st, req, sc)
			listed := pl // a copy: pl itself is committed as unlisted free-rank runs
			nodes := listed.Nodes()
			if req.Nodes > free {
				if err == nil {
					t.Fatalf("op %d: %s satisfied %d nodes with only %d free", i, sel.Name(), req.Nodes, free)
				}
				continue
			}
			// The engine starts any queue-head job whose size fits the free
			// count, so a selector failing here would wedge the simulation.
			if err != nil {
				t.Fatalf("op %d: %s failed a feasible request (%d of %d free): %v",
					i, sel.Name(), req.Nodes, free, err)
			}
			if len(nodes) != req.Nodes {
				t.Fatalf("op %d: %s returned %d nodes for a %d-node request", i, sel.Name(), len(nodes), req.Nodes)
			}
			seen := make(map[int]bool, len(nodes))
			for _, n := range nodes {
				if seen[n] {
					t.Fatalf("op %d: %s returned node %d twice", i, sel.Name(), n)
				}
				seen[n] = true
				if !st.NodeFree(n) {
					t.Fatalf("op %d: %s returned busy node %d", i, sel.Name(), n)
				}
			}
			if again, err := sel.Select(st, req); err != nil || !slices.Equal(again, nodes) {
				t.Fatalf("op %d: %s: Select %v, %v; Place %v", i, sel.Name(), again, err, nodes)
			}
			if ref, err := selectRef(algs[i%len(sels)], st, req); err != nil || !slices.Equal(ref, nodes) {
				t.Fatalf("op %d: %s: the list-building selector chose %v, %v; the free-rank runs list %v", i, sel.Name(), ref, err, nodes)
			}
			if price.OK {
				fresh, err := sc.Pricing().PlacementCostMode(st, req.Job, req.Class, &pl, req.Pattern, costmodel.ModeEffectiveHops)
				if err != nil || math.Float64bits(fresh) != math.Float64bits(price.Cost) {
					t.Fatalf("op %d: %s priced its pick at %v; priced afresh it costs %v, %v", i, sel.Name(), price.Cost, fresh, err)
				}
			}
			bare := cluster.NewPlacement(nodes)
			if !bare.Reduce(cluster.LayoutOf(topo), new(cluster.Scratch)) || !slices.Equal(bare.Runs(), pl.Runs()) {
				t.Fatalf("op %d: %s recorded runs %x for %v, whose maximal leaf runs are %x", i, sel.Name(), pl.Runs(), nodes, bare.Runs())
			}
			if err := st.AllocatePlacement(req.Job, req.Class, &pl); err != nil {
				t.Fatalf("op %d: committing %s's selection: %v", i, sel.Name(), err)
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("op %d: after allocate: %v", i, err)
			}
			reversed := slices.Clone(nodes)
			slices.Reverse(reversed)
			if err := mirror.Allocate(req.Job, req.Class, reversed); err != nil {
				t.Fatalf("op %d: committing the reversed list: %v", i, err)
			}
			if err := sameCounters(st, mirror); err != nil {
				t.Fatalf("op %d: %s's placement vs its bare node list: %v", i, sel.Name(), err)
			}
			live = append(live, next)
			next++
		}
		for _, id := range live {
			if err := st.Release(id); err != nil {
				t.Fatalf("draining job %d: %v", id, err)
			}
		}
		if st.FreeTotal() != machine {
			t.Fatalf("drained cluster has %d free of %d", st.FreeTotal(), machine)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("after drain: %v", err)
		}
	})
}
