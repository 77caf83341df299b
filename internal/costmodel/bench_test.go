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
// recursive-doubling job striped across every other leaf, evaluated by
// the leaf-pair kernel ("opt") and the uncached reference loop ("ref").
// Machines past 128 leaves once ran the reference path silently; this pair
// records that they no longer do. It times one unchanged state re-priced in
// a loop, a shape no caller has, so it runs under bench-smoke only.
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
	steps := collective.RD.MustSchedule(256)
	benchOptRef(b, st, nodes, steps)

	// The wide variant: a 512-rank alltoall with one rank on every leaf
	// (quadratic distinct leaf pairs — the shape where flat costing is
	// O(touched²)), on its own uniformly loaded state so cross-pod blocks
	// collapse. "wide/opt" is the subtree-aggregated kernel, "wide/flat"
	// the flat leaf-pair kernel, "wide/ref" the uncached loops.
	b.Run("wide", func(b *testing.B) {
		wst := cluster.New(topo)
		wnodes := make([]int, 512)
		for i := range wnodes {
			wnodes[i] = topo.LeafNodes(i)[0]
		}
		if err := wst.Allocate(1, cluster.CommIntensive, wnodes); err != nil {
			b.Fatal(err)
		}
		benchKernelPaths(b, wst, wnodes, collective.Alltoall.MustSchedule(512))
	})
}

// BenchmarkJobCost4096LeavesWide is the dragonfly-scale pair (bench-smoke
// only, like the 512-leaf one): 4096 leaves in 64 pods of 64, a 1024-rank
// alltoall striped across every fourth leaf (16 touched leaves in every
// pod, so every cross-pod block is live), costed by the subtree-aggregated
// kernel ("opt"), the flat kernel ("flat"), and the reference loops
// ("ref"). The alltoall's XOR step structure puts ~32 cross-pod blocks per
// step where the flat kernel scans 512 pairs, which is where the ≥5×
// collapse comes from.
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
	steps := collective.Alltoall.MustSchedule(1024)
	benchKernelPaths(b, st, nodes, steps)
}

// benchOptRef runs one JobCost fixture on st ("opt") and on its reference
// clone ("ref"), the speedup pair the committed BENCH_*.json tracks.
func benchOptRef(b *testing.B, st *cluster.State, nodes []int, steps []collective.Step) {
	for _, mode := range []struct {
		name string
		st   *cluster.State
	}{{"opt", st}, {"ref", st.CloneAs(true)}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := JobCost(mode.st, nodes, steps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchKernelPaths runs one JobCost fixture through the three evaluation
// paths: the aggregated kernel its schedule compiles to, the flat
// evaluator called on that same schedule, and the reference loops. The
// fixture must be wide enough to compile the aggregated stage — otherwise
// "opt" and "flat" would silently time the same code.
func benchKernelPaths(b *testing.B, st *cluster.State, nodes []int, steps []collective.Step) {
	b.Helper()
	ls, err := leafSchedFor(st, nodes, steps)
	if err != nil || ls == nil || ls.agg == nil {
		b.Fatalf("fixture not on the aggregated path (schedule %v, err %v)", ls, err)
	}
	benchOptRef(b, st, nodes, steps)
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkCost = ls.evalFlat(st, false, false, 0)
		}
	})
}

// sinkCost keeps a benchmarked evaluation's result alive.
var sinkCost float64

// BenchmarkJobCost measures Eq. 6 over a 512-node recursive-doubling job
// spread across every Theta leaf, through the leaf-pair kernel ("opt") and the
// uncached reference loop ("ref"). The committed BENCH_*.json tracks the
// opt/ref pair.
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
	steps := collective.RD.MustSchedule(512)
	benchOptRef(b, st, nodes, steps)
}

// compileLists are the node-list shapes BenchmarkCompile and
// TestCompileMatchesPerPairReference compile against, n ranks each on
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

// BenchmarkCompile measures the cold compile — buildLeafSchedule from the
// memo's blocks, as a schedule's first pricing on a new node list runs it —
// of recursive doubling on Intrepid. Its cost is linear in blocks × runs
// crossed, not in pairs; ns/pair is reported to show how far below one
// visit per pair (≈ 10 ns each before the run compile) that lands.
// "selector" is the shape the replays compile: what greedy Place returns on
// a half-loaded machine. Every other costmodel benchmark prices through a
// warm leafSchedCache and never sees this layer.
func BenchmarkCompile(b *testing.B) {
	topo := topology.Intrepid()
	lay := cluster.LayoutOf(topo)
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
			pairs := collective.TotalMessages(collective.Expand(blocks))
			b.Run(fmt.Sprintf("%s/%d", shape, n), func(b *testing.B) {
				sc := new(buildScratch)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pl := cluster.NewPlacement(nodes)
					if !pl.Reduce(lay, &sc.scan) {
						b.Fatal("fixture list does not compile")
					}
					if _, err := buildLeafSchedule(lay, sc, pl.Runs(), nil, blocks); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
			})
		}
	}
}
