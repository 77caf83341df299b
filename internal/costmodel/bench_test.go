package costmodel

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// BenchmarkJobCost512Leaves measures Eq. 6 on a machine four times past
// the paper's largest (512 leaves, three-level tree): a 256-node
// recursive-doubling job striped across every other leaf, priced on the
// fast path ("opt") and by the reference loop ("ref"). Machines past 128
// leaves once ran the reference path silently; this pair records that they
// no longer do. It times one unchanged state re-priced in a loop, a shape
// no caller has, so it runs under bench-smoke only.
func BenchmarkJobCost512Leaves(b *testing.B) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{128, 4}})
	st := cluster.New(topo)
	nodes := make([]int, 256)
	for i := range nodes {
		nodes[i] = topo.LeafNodes(2 * i % topo.NumLeaves())[0]
	}
	if err := st.Allocate(1, cluster.CommIntensive, nodes); err != nil {
		b.Fatal(err)
	}
	benchOptRef(b, st, nodes, collective.RD)
}

// BenchmarkJobCost4096LeavesWide is the dragonfly-scale pair (bench-smoke
// only, like the 512-leaf one): 4096 leaves in 64 pods of 64, a 1024-rank
// alltoall striped across every fourth leaf, 16 touched leaves in every
// pod, priced on the fast path ("opt") and by the reference loop ("ref").
func BenchmarkJobCost4096LeavesWide(b *testing.B) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{64, 64}})
	st := cluster.New(topo)
	nodes := make([]int, 1024)
	for i := range nodes {
		nodes[i] = topo.LeafNodes(4 * i % topo.NumLeaves())[0]
	}
	if err := st.Allocate(1, cluster.CommIntensive, nodes); err != nil {
		b.Fatal(err)
	}
	benchOptRef(b, st, nodes, collective.Alltoall)
}

// benchOptRef runs one JobCost fixture on st ("opt") and on its reference
// clone ("ref").
func benchOptRef(b *testing.B, st *cluster.State, nodes []int, p collective.Pattern) {
	for _, mode := range []struct {
		name string
		st   *cluster.State
	}{{"opt", st}, {"ref", st.CloneAs(true)}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := JobCost(mode.st, nodes, p, ModeEffectiveHops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJobCost measures Eq. 6 over a 512-node recursive-doubling job
// spread across every Theta leaf, on the fast path ("opt") and by the
// reference loop ("ref"). Like the wide pairs above it re-prices one
// unchanged state, a shape no caller has, so it runs under bench-smoke only.
func BenchmarkJobCost(b *testing.B) {
	topo := topology.Theta()
	st := cluster.New(topo)
	// Stripe ranks across all 12 leaves so the schedule's pairs span the
	// full distance and contention range.
	nodes := make([]int, 512)
	for i := range nodes {
		l := i % topo.NumLeaves()
		nodes[i] = topo.LeafNodes(l)[i/topo.NumLeaves()]
	}
	if err := st.Allocate(1, cluster.CommIntensive, nodes); err != nil {
		b.Fatal(err)
	}
	benchOptRef(b, st, nodes, collective.RD)
}

// compileLists are the node-list shapes BenchmarkPrice and
// TestPriceMatchesReference price, n ranks each on
// topo: "contiguous" fills leaves in order (what the selectors mostly
// emit), "fragmented" deals chunk-node pieces round-robin over the leaves
// (a busy machine's leftovers), "permuted" shuffles the fragmented list
// (only rank remapping produces that: every leaf run has length ~1),
// "selector" is one run per leaf in most-free-first order (what greedy
// Place returns on a loaded machine).
func compileLists(topo *topology.Topology, n, chunk int) map[string][]int {
	contiguous := make([]int, n)
	for i := range contiguous {
		contiguous[i] = i
	}
	fragmented := make([]int, 0, n)
	for round := 0; len(fragmented) < n; round++ {
		for l := 0; l < topo.NumLeaves() && len(fragmented) < n; l++ {
			ln := topo.LeafNodes(l)
			for i := round * chunk; i < (round+1)*chunk && i < len(ln) && len(fragmented) < n; i++ {
				fragmented = append(fragmented, ln[i])
			}
		}
	}
	permuted := slices.Clone(fragmented)
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) {
		permuted[i], permuted[j] = permuted[j], permuted[i]
	})
	// Free counts as a machine loaded to half leaves them, or as loaded as
	// a job of n ranks lets it be; most free first, so leaf indices jump.
	rng := rand.New(rand.NewSource(int64(n) + 1))
	load := min(0.5, 0.8*(1-float64(n)/float64(topo.NumNodes())))
	order := make([][2]int, topo.NumLeaves()) // (free nodes, leaf)
	for l := range order {
		size := len(topo.LeafNodes(l))
		order[l] = [2]int{size - rng.Intn(int(2*load*float64(size))+1), l}
	}
	slices.SortFunc(order, func(a, b [2]int) int { return cmp.Or(b[0]-a[0], a[1]-b[1]) })
	selector := make([]int, 0, n)
	for _, fl := range order {
		selector = append(selector, topo.LeafNodes(fl[1])[:min(fl[0], n-len(selector))]...)
	}
	if len(selector) < n {
		panic("compileLists: the selector-shaped list ran out of free nodes")
	}
	return map[string][]int{"contiguous": contiguous, "fragmented": fragmented, "permuted": permuted, "selector": selector}
}

// BenchmarkPrice measures one pricing — the walk of recursive doubling's
// memoized blocks over a placement's leaf runs, with the overlay, as
// PlacementCostMode runs it for a communication-intensive candidate — on
// Intrepid. Its cost is linear in blocks × runs crossed plus one Hops per
// distinct leaf pair, not in pairs; ns/pair is reported to show how far
// below one visit per pair (≈ 10 ns each before the run walk) that lands.
// "selector" is the shape the replays price: what greedy Place returns on a
// half-loaded machine.
func BenchmarkPrice(b *testing.B) {
	topo := topology.Intrepid()
	lay := topo.Layout()
	st := cluster.New(topo)
	for _, shape := range []string{"contiguous", "fragmented", "permuted", "selector"} {
		sizes := []int{512, 4096, 32768}
		if shape == "selector" {
			sizes = []int{4096, 5263, 32768}
		}
		for _, n := range sizes {
			nodes := compileLists(topo, n, 24)[shape]
			blocks, err := collective.RD.Blocks(n)
			if err != nil {
				b.Fatal(err)
			}
			pairs := 0
			for _, st := range collective.Expand(blocks) {
				pairs += len(st.Pairs)
			}
			b.Run(fmt.Sprintf("%s/%d", shape, n), func(b *testing.B) {
				sc := new(Scratch)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pl := cluster.NewPlacement(nodes)
					if !pl.Reduce(lay, &sc.scan) {
						b.Fatal("fixture list has no run sequence")
					}
					if _, err := sc.price(st, lay, pl.Runs(), blocks, ModeEffectiveHops, true); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
			})
		}
	}
}
