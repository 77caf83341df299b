package costmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// figure5State reproduces the worked example of §5.3 / Figure 5:
// Job1 (comm) on n0,n1,n4,n5; Job2 (comm) on n2,n3; n6,n7 free.
func figure5State(t testing.TB) *cluster.State {
	t.Helper()
	st := cluster.New(topology.PaperExample())
	if err := st.Allocate(1, cluster.CommIntensive, []int{0, 1, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := st.Allocate(2, cluster.CommIntensive, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	return st
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestContentionFigure5(t *testing.T) {
	st := figure5State(t)
	// Paper: C(n0,n1) = 4/4 = 1.
	if got := Contention(st, 0, 1); !approx(got, 1) {
		t.Errorf("C(n0,n1) = %v, want 1", got)
	}
	// Paper: C(n0,n4) = 4/4 + 2/4 + ½·(4+2)/(4+4) = 1.875.
	if got := Contention(st, 0, 4); !approx(got, 1.875) {
		t.Errorf("C(n0,n4) = %v, want 1.875", got)
	}
	// Symmetry.
	if Contention(st, 4, 0) != Contention(st, 0, 4) {
		t.Error("contention not symmetric")
	}
}

func TestHopsFigure5(t *testing.T) {
	st := figure5State(t)
	// Paper: Hops(n0,n1) = 2·(1+1) = 4; Hops(n0,n4) = 4·(1+1.875) = 11.5.
	if got := Hops(st, 0, 1); !approx(got, 4) {
		t.Errorf("Hops(n0,n1) = %v, want 4", got)
	}
	if got := Hops(st, 0, 4); !approx(got, 11.5) {
		t.Errorf("Hops(n0,n4) = %v, want 11.5", got)
	}
	if got := Hops(st, 3, 3); got != 0 {
		t.Errorf("Hops(i,i) = %v, want 0", got)
	}
}

func TestJobCostRDFigure5(t *testing.T) {
	st := figure5State(t)
	// Job1's nodes in rank order: ranks 0,1 on leaf 0; ranks 2,3 on leaf 1.
	nodes := []int{0, 1, 4, 5}
	// Step 0: pairs (0,1)->(n0,n1) and (2,3)->(n4,n5). Intra-leaf.
	// Hops(n0,n1) = 4; Hops(n4,n5) = 2·(1 + 2/4) = 3. Max = 4.
	// Step 1: pairs (0,2)->(n0,n4), (1,3)->(n1,n5). Both cross: 11.5. Max = 11.5.
	cost, err := JobCost(st, nodes, collective.RD, ModeEffectiveHops)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(cost, 4+11.5) {
		t.Errorf("JobCost = %v, want 15.5", cost)
	}
}

func TestJobCostHopBytes(t *testing.T) {
	st := figure5State(t)
	nodes := []int{0, 1, 4, 5}
	// RHVD(4): step 0 dist 2 (cross-leaf, msize 1): max hops 11.5;
	// step 1 dist 1 (intra-leaf, msize 2): max hops 4.
	cost, err := JobCost(st, nodes, collective.RHVD, ModeHopBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(cost, 11.5*1+4*2) {
		t.Errorf("hop-bytes = %v, want 19.5", cost)
	}
}

// TestJobCostRangeError holds the walk and the reference loop to rejecting
// a schedule for more ranks than the list has, in every mode.
func TestJobCostRangeError(t *testing.T) {
	st := figure5State(t)
	steps := collective.RD.MustSchedule(8)
	blocks, err := collective.RD.Blocks(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range allModes {
		if _, err := costRef(st, []int{0, 1}, steps, mode); err == nil {
			t.Errorf("%v: out-of-range pair accepted by the reference loop", mode)
		}
		if _, _, err := priceCold(st, []int{0, 1}, blocks, mode, false); err == nil {
			t.Errorf("%v: out-of-range block accepted by the walk", mode)
		}
	}
}

func TestCandidateCostRollsBack(t *testing.T) {
	st := figure5State(t)
	before := st.FreeTotal()
	cost, err := CandidateCostMode(st, 99, cluster.CommIntensive, []int{6, 7}, collective.RD, ModeEffectiveHops)
	if err != nil {
		t.Fatal(err)
	}
	if st.FreeTotal() != before {
		t.Fatalf("candidate cost changed state: free %d -> %d", before, st.FreeTotal())
	}
	if st.Allocation(99) != nil {
		t.Fatal("candidate allocation not rolled back")
	}
	// n6,n7 share leaf 1; with the candidate counted, leaf 1 has 4 comm
	// nodes of 4: C = 1, d = 2, hops = 4, one RD step.
	if !approx(cost, 4) {
		t.Errorf("candidate cost = %v, want 4", cost)
	}
	// Single-node candidates cost nothing.
	c1, err := CandidateCostMode(st, 99, cluster.CommIntensive, []int{6}, collective.RD, ModeEffectiveHops)
	if err != nil || c1 != 0 {
		t.Errorf("single-node candidate cost = %v, %v; want 0, nil", c1, err)
	}
	// Empty candidate is an error.
	if _, err := CandidateCostMode(st, 99, cluster.CommIntensive, nil, collective.RD, ModeEffectiveHops); err == nil {
		t.Error("empty candidate accepted")
	}
	// Busy nodes are an error.
	if _, err := CandidateCostMode(st, 99, cluster.CommIntensive, []int{0}, collective.RD, ModeEffectiveHops); err == nil {
		t.Error("busy candidate accepted")
	}
}

func TestRuntimeRatioGuards(t *testing.T) {
	if r := RuntimeRatio(5, 0); r != 1 {
		t.Errorf("zero default: ratio %v, want 1", r)
	}
	if r := RuntimeRatio(5, -1); r != 1 {
		t.Errorf("negative default: ratio %v, want 1", r)
	}
	if r := RuntimeRatio(3, 4); !approx(r, 0.75) {
		t.Errorf("ratio = %v, want 0.75", r)
	}
}

func TestModifiedRuntimeEq7(t *testing.T) {
	eq7 := func(base, commFrac, jobAware, def float64) float64 {
		got, err := ModifiedRuntimeMix(base, collective.SinglePattern(collective.RD, commFrac),
			[]float64{RuntimeRatio(jobAware, def)})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// T = 100, 40% comm, cost halved: T' = 60 + 40·0.5 = 80.
	if got := eq7(100, 0.4, 1, 2); !approx(got, 80) {
		t.Errorf("T' = %v, want 80", got)
	}
	// Compute-only job unchanged.
	if got := eq7(100, 0, 1, 2); got != 100 {
		t.Errorf("compute-only T' = %v, want 100", got)
	}
	// Worse allocation inflates runtime.
	if got := eq7(100, 0.5, 3, 2); !approx(got, 125) {
		t.Errorf("T' = %v, want 125", got)
	}
	// A zero reference cost leaves the runtime as it is.
	if got := eq7(100, 0.5, 3, 0); !approx(got, 100) {
		t.Errorf("zero-reference T' = %v, want 100", got)
	}
}

func TestModifiedRuntimeMix(t *testing.T) {
	mix := collective.SetD // 50% compute, 15% RD, 35% Binomial
	got, err := ModifiedRuntimeMix(100, mix, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := 50 + 15*0.5 + 35*2.0
	if !approx(got, want) {
		t.Errorf("mix T' = %v, want %v", got, want)
	}
	if _, err := ModifiedRuntimeMix(100, mix, []float64{1}); err == nil {
		t.Error("ratio count mismatch accepted")
	}
}

// Properties: contention is non-negative, symmetric, and monotone in
// comm load; hops >= distance whenever any contention exists.
func TestContentionProperties(t *testing.T) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 4, Fanouts: []int{4}})
	f := func(seedA, seedB uint8) bool {
		st := cluster.New(topo)
		// Allocate two comm jobs at pseudo-random positions.
		a := int(seedA) % 14
		if err := st.Allocate(1, cluster.CommIntensive, []int{a, a + 1}); err != nil {
			return true // overlapping choice, skip
		}
		b := int(seedB) % 16
		if st.NodeFree(b) {
			if err := st.Allocate(2, cluster.CommIntensive, []int{b}); err != nil {
				return true
			}
		}
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				c := Contention(st, i, j)
				if c < 0 || c != Contention(st, j, i) {
					return false
				}
				if i != j {
					h := Hops(st, i, j)
					if h < float64(topo.Distance(i, j)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Same-leaf contention never exceeds cross-leaf contention between equally
// loaded leaves — the mechanism behind the balanced algorithm's benefit.
func TestIntraCheaperThanInter(t *testing.T) {
	st := figure5State(t)
	if Hops(st, 0, 1) >= Hops(st, 0, 4) {
		t.Fatalf("intra-leaf hops %v >= inter-leaf hops %v", Hops(st, 0, 1), Hops(st, 0, 4))
	}
}

func BenchmarkJobCostRD512(b *testing.B) {
	topo := topology.Theta()
	st := cluster.New(topo)
	nodes := make([]int, 512)
	for i := range nodes {
		nodes[i] = i
	}
	if err := st.Allocate(1, cluster.CommIntensive, nodes); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JobCost(st, nodes, collective.RD, ModeEffectiveHops); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCandidateCost512(b *testing.B) {
	topo := topology.Theta()
	st := cluster.New(topo)
	nodes := make([]int, 512)
	for i := range nodes {
		nodes[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CandidateCostMode(st, 1, cluster.CommIntensive, nodes, collective.RD, ModeEffectiveHops); err != nil {
			b.Fatal(err)
		}
	}
}
