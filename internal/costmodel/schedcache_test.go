package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// memoKey is one (pattern, rank count) the memo tests touch.
type memoKey struct {
	p collective.Pattern
	n int
}

// heldBytes recounts what m holds from its contents: the blocks of every
// kept entry, the pages and the directories.
func heldBytes(m *scheduleMemo) int64 {
	var b int64
	for p := range m.dirs {
		d := m.dirs[p].Load()
		if d == nil {
			continue
		}
		b += int64(len(*d)) * int64(unsafe.Sizeof((*memoPage)(nil)))
		for _, pg := range *d {
			if pg == nil {
				continue
			}
			b += int64(unsafe.Sizeof(memoPage{}))
			for i := range pg {
				if e := pg[i].Load(); e != nil {
					b += blocksBytes(e.blocks)
				}
			}
		}
	}
	return b
}

// TestScheduleMemoBoundUnderConcurrency touches a bounded memo from many
// goroutines at once (run it under -race): every goroutine asks for every
// key, half of them in one shared order and half each in its own, so first
// touches of one key and of different keys race each other and the bound.
// Afterwards the memo holds at most its bound, its count of bytes is
// exactly what its contents take, and each key has one entry: every caller
// that got a kept entry got the one the memo holds.
func TestScheduleMemoBoundUnderConcurrency(t *testing.T) {
	var keys []memoKey
	for _, p := range []collective.Pattern{collective.RD, collective.Binomial, collective.Stencil} {
		for n := 1; n <= 300; n++ {
			keys = append(keys, memoKey{p, n})
		}
	}
	// Half of what the keys' blocks take alone: some keys fit, others not.
	full := &scheduleMemo{max: math.MaxInt64}
	for _, k := range keys {
		if _, kept, err := full.entry(k.p, k.n); err != nil || !kept {
			t.Fatalf("%v/%d: kept %v, %v in an unbounded memo", k.p, k.n, kept, err)
		}
	}
	m := &scheduleMemo{max: full.bytes / 2}

	const workers = 8
	got := make([][]*memoSchedule, workers) // the kept entries each worker got
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*memoSchedule, len(keys))
			order := rand.New(rand.NewSource(int64(w))).Perm(len(keys))
			if w%2 == 0 {
				order = rand.New(rand.NewSource(0)).Perm(len(keys))
			}
			<-start
			for _, i := range order {
				e, kept, err := m.entry(keys[i].p, keys[i].n)
				if err != nil {
					t.Error(err)
					return
				}
				if kept {
					got[w][i] = e
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	if m.bytes > m.max {
		t.Errorf("the memo holds %d bytes over its bound of %d", m.bytes, m.max)
	}
	if held := heldBytes(m); held != m.bytes {
		t.Errorf("the memo counts %d bytes; its contents take %d", m.bytes, held)
	}
	kept := 0
	for i, k := range keys {
		e := m.lookup(k.p, k.n)
		if e != nil {
			kept++
		}
		for w := range got {
			if g := got[w][i]; g != nil && g != e {
				t.Fatalf("%v/%d: worker %d got a kept entry the memo does not hold", k.p, k.n, w)
			}
		}
	}
	if kept == 0 || kept == len(keys) {
		t.Errorf("%d of %d keys kept: the bound should keep some and refuse others", kept, len(keys))
	}
}

// TestScheduleMemoCoversTheta is the memo's coverage promise at paper
// scale: every schedule a Theta trace can price (sizes 1 to 512 of RD,
// RHVD and Binomial) is kept on first touch, together in a small share of
// the bound, and from then on pricing allocates nothing and regenerates
// nothing.
func TestScheduleMemoCoversTheta(t *testing.T) {
	topo := topology.Theta()
	st := cluster.New(topo)
	nodes := make([]int, 512)
	for i := range nodes {
		nodes[i] = i
	}
	patterns := []collective.Pattern{collective.RD, collective.RHVD, collective.Binomial}
	var held int64
	for _, p := range patterns {
		for n := 1; n <= len(nodes); n++ {
			e, kept, err := schedules.entry(p, n)
			if err != nil {
				t.Fatal(err)
			}
			if !kept {
				t.Fatalf("%v/%d: the memo refused a paper-scale schedule", p, n)
			}
			held += blocksBytes(e.blocks)
		}
	}
	t.Logf("Theta's %d schedules take %d bytes in block form (bound %d)", len(patterns)*len(nodes), held, maxScheduleBytes)
	if held > maxScheduleBytes/8 {
		t.Errorf("Theta's schedules take %d bytes, over an eighth of the bound %d", held, maxScheduleBytes)
	}
	sc := new(Scratch)
	priceAll := func() {
		for _, p := range patterns {
			for n := 1; n <= len(nodes); n++ {
				if _, err := sc.JobCost(st, nodes[:n], p, ModeEffectiveHops); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	priceAll() // grows the scratch
	if allocs := testing.AllocsPerRun(2, priceAll); allocs != 0 {
		t.Errorf("pricing every Theta size allocated %.1f times, want 0: a schedule was regenerated", allocs)
	}
}

// TestRefusedSchedulePricesLikeReference: a schedule the bound refuses is
// generated for the call and priced from those blocks bit for bit as the
// node-pair reference loop prices the schedule built afresh.
func TestRefusedSchedulePricesLikeReference(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 16, Fanouts: []int{16, 16}})
	m := &scheduleMemo{max: 0}
	for _, n := range []int{2, 7, 24, 100, 257} {
		nodes := compileLists(topo, n, 5)["selector"]
		st := cluster.New(topo)
		if err := st.Allocate(1, cluster.CommIntensive, nodes); err != nil {
			t.Fatal(err)
		}
		for _, p := range []collective.Pattern{collective.RD, collective.RHVD, collective.Binomial,
			collective.Ring, collective.Stencil, collective.Alltoall} {
			e, kept, err := m.entry(p, n)
			if err != nil {
				t.Fatal(err)
			}
			if kept || m.lookup(p, n) != nil || m.bytes != 0 {
				t.Fatalf("%v/%d: a memo bounded at 0 bytes kept it", p, n)
			}
			steps, err := ScheduleFor(p, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range allModes {
				label := fmt.Sprintf("%v/%d/%v", p, n, mode)
				got, ok, err := priceCold(st, nodes, e.blocks, mode, false)
				if err != nil || !ok {
					t.Fatalf("%s: %v (run view %v)", label, err, ok)
				}
				if want := refPrice(t, st, nodes, steps, mode); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: regenerated blocks price %v, the reference loop %v", label, got, want)
				}
			}
		}
	}
}

// TestDroppedMachineIsCollectable: the process-wide caches keep schedules
// only, so once a topology and the state over it are dropped the machine is
// garbage, however much it was priced and committed on.
func TestDroppedMachineIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 8, Fanouts: []int{4}})
		runtime.SetFinalizer(topo, func(*topology.Topology) { close(collected) })
		st := cluster.New(topo)
		pl := cluster.NewPlacement([]int{0, 1, 9, 17, 25})
		if _, err := new(Scratch).PlacementCostMode(st, 1, cluster.CommIntensive, &pl, collective.RD, ModeEffectiveHops); err != nil {
			t.Fatal(err)
		}
		if err := st.AllocatePlacement(1, cluster.CommIntensive, &pl); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the topology is still reachable after it and its state were dropped")
}
