package topology

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

const figure2Conf = `
# Figure 2 of the paper: two leaves of four nodes under one top switch.
SwitchName=s0 Nodes=n[0-3]
SwitchName=s1 Nodes=n[4-7]
SwitchName=s2 Switches=s[0-1]
`

func mustParse(t *testing.T, conf string) *Topology {
	t.Helper()
	topo, err := ParseConfig(strings.NewReader(conf))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	return topo
}

func TestParseFigure2(t *testing.T) {
	topo := mustParse(t, figure2Conf)
	if got := topo.NumNodes(); got != 8 {
		t.Fatalf("NumNodes = %d, want 8", got)
	}
	if got := topo.NumLeaves(); got != 2 {
		t.Fatalf("NumLeaves = %d, want 2", got)
	}
	if got := topo.Height(); got != 2 {
		t.Fatalf("Height = %d, want 2", got)
	}
	if topo.Root.Name != "s2" {
		t.Fatalf("root = %q, want s2", topo.Root.Name)
	}
	n0, n1, n4 := topo.NodeID("n0"), topo.NodeID("n1"), topo.NodeID("n4")
	if n0 < 0 || n1 < 0 || n4 < 0 {
		t.Fatalf("node lookup failed: %d %d %d", n0, n1, n4)
	}
	// Paper §5.3: d(n0,n1) = 2 (same leaf), d(n0,n4) = 4 (level-2 common).
	if d := topo.Distance(n0, n1); d != 2 {
		t.Errorf("d(n0,n1) = %d, want 2", d)
	}
	if d := topo.Distance(n0, n4); d != 4 {
		t.Errorf("d(n0,n4) = %d, want 4", d)
	}
	if d := topo.Distance(n0, n0); d != 0 {
		t.Errorf("d(n0,n0) = %d, want 0", d)
	}
	if l := topo.LeafOf(n4); l != 1 {
		t.Errorf("LeafOf(n4) = %d, want 1", l)
	}
	if s := topo.LeafSize(0); s != 4 {
		t.Errorf("LeafSize(0) = %d, want 4", s)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"missing name":       "Nodes=n[0-3]",
		"both keys":          "SwitchName=s0 Nodes=n0 Switches=s1",
		"neither key":        "SwitchName=s0",
		"unknown key":        "SwitchName=s0 Frob=1 Nodes=n0",
		"malformed field":    "SwitchName=s0 Nodes",
		"unknown child":      "SwitchName=s0 Nodes=n0\nSwitchName=s1 Switches=s9",
		"duplicate switch":   "SwitchName=s0 Nodes=n0\nSwitchName=s0 Nodes=n1\nSwitchName=s2 Switches=s0",
		"duplicate node":     "SwitchName=s0 Nodes=n0\nSwitchName=s1 Nodes=n0\nSwitchName=s2 Switches=s[0-1]",
		"two parents":        "SwitchName=s0 Nodes=n0\nSwitchName=s1 Switches=s0\nSwitchName=s2 Switches=s[0-1]",
		"multiple roots":     "SwitchName=s0 Nodes=n0\nSwitchName=s1 Nodes=n1",
		"self child":         "SwitchName=s0 Switches=s0",
		"empty":              "# nothing\n",
		"bad hostlist":       "SwitchName=s0 Nodes=n[0-",
		"cycle below a root": "SwitchName=r Nodes=n9\nSwitchName=s0 Switches=s1\nSwitchName=s1 Switches=s0",
	}
	for name, conf := range bad {
		if _, err := ParseConfig(strings.NewReader(conf)); err == nil {
			t.Errorf("%s: expected error for %q", name, conf)
		}
	}
}

func TestWriteConfigRoundTrip(t *testing.T) {
	orig := mustParse(t, figure2Conf)
	var buf bytes.Buffer
	if err := orig.WriteConfig(&buf); err != nil {
		t.Fatalf("WriteConfig: %v", err)
	}
	back, err := ParseConfig(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if back.NumNodes() != orig.NumNodes() || back.NumLeaves() != orig.NumLeaves() ||
		back.Height() != orig.Height() {
		t.Fatalf("round trip changed shape: %d/%d/%d vs %d/%d/%d",
			back.NumNodes(), back.NumLeaves(), back.Height(),
			orig.NumNodes(), orig.NumLeaves(), orig.Height())
	}
	for i := 0; i < orig.NumNodes(); i++ {
		for j := 0; j < orig.NumNodes(); j++ {
			a := orig.Distance(i, j)
			b := back.Distance(back.NodeID(orig.NodeName(i)), back.NodeID(orig.NodeName(j)))
			if a != b {
				t.Fatalf("distance(%d,%d) changed: %d vs %d", i, j, a, b)
			}
		}
	}
}

func TestGenerateThreeLevel(t *testing.T) {
	topo := MustGenerate(Spec{NodesPerLeaf: 4, Fanouts: []int{4, 2}})
	if topo.NumNodes() != 32 {
		t.Fatalf("NumNodes = %d, want 32", topo.NumNodes())
	}
	if topo.NumLeaves() != 8 {
		t.Fatalf("NumLeaves = %d, want 8", topo.NumLeaves())
	}
	if topo.Height() != 3 {
		t.Fatalf("Height = %d, want 3", topo.Height())
	}
	// Nodes 0 and 4 are on sibling leaves under the same level-2 switch:
	// distance 4. Nodes 0 and 16 are in different level-2 groups: distance 6.
	if d := topo.Distance(0, 4); d != 4 {
		t.Errorf("d(0,4) = %d, want 4", d)
	}
	if d := topo.Distance(0, 16); d != 6 {
		t.Errorf("d(0,16) = %d, want 6", d)
	}
	if d := topo.Distance(0, 1); d != 2 {
		t.Errorf("d(0,1) = %d, want 2", d)
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := []Spec{
		{NodesPerLeaf: 0, Fanouts: []int{2}},
		{NodesPerLeaf: 4, Fanouts: nil},
		{NodesPerLeaf: 4, Fanouts: []int{0}},
		{NodesPerLeaf: 4, Fanouts: []int{3, 2, 2}}, // 3 not divisible later? 3*2*2 leaves = 12; 12/3=4, 4/2=2, 2/2=1: fine.
	}
	for i, spec := range cases[:3] {
		if _, err := Generate(spec); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := Generate(cases[3]); err != nil {
		t.Errorf("case 3: unexpected error %v", err)
	}
}

func TestGenerateUnevenLast(t *testing.T) {
	topo := MustGenerate(Spec{NodesPerLeaf: 16, Fanouts: []int{4}, UnevenLast: 2})
	if topo.NumNodes() != 16*3+2 {
		t.Fatalf("NumNodes = %d, want 50", topo.NumNodes())
	}
	if got := topo.LeafSize(3); got != 2 {
		t.Fatalf("last leaf size = %d, want 2", got)
	}
}

func TestPresetsShape(t *testing.T) {
	cases := []struct {
		name          string
		topo          *Topology
		nodes, leaves int
	}{
		{"Theta", Theta(), 4392, 12},
		{"Cori", Cori(), 9688, 28},
		{"Intrepid", Intrepid(), 40960, 128},
		{"Mira", Mira(), 49152, 128},
		{"IITK", IITK(4), 64, 4},
		{"PaperExample", PaperExample(), 8, 2},
		{"Departmental", Departmental(), 50, 2},
	}
	for _, c := range cases {
		if c.topo.NumNodes() != c.nodes {
			t.Errorf("%s: nodes = %d, want %d", c.name, c.topo.NumNodes(), c.nodes)
		}
		if c.topo.NumLeaves() != c.leaves {
			t.Errorf("%s: leaves = %d, want %d", c.name, c.topo.NumLeaves(), c.leaves)
		}
	}
	minN, maxN := Theta().NodesPerLeaf()
	if minN != 366 || maxN != 366 {
		t.Errorf("Theta nodes/leaf = %d..%d, want 366..366", minN, maxN)
	}
}

// Distance properties (Eq. 4): symmetry, identity, bounds, and the
// triangle-like ultrametric property of trees: d(i,k) <= max(d(i,j), d(j,k)).
func TestDistanceProperties(t *testing.T) {
	topo := MustGenerate(Spec{NodesPerLeaf: 4, Fanouts: []int{4, 2}})
	n := topo.NumNodes()
	f := func(ia, ja, ka uint16) bool {
		i, j, k := int(ia)%n, int(ja)%n, int(ka)%n
		dij := topo.Distance(i, j)
		if dij != topo.Distance(j, i) {
			return false
		}
		if i == j && dij != 0 {
			return false
		}
		if i != j && (dij < 2 || dij > 2*topo.Height()) {
			return false
		}
		dik := topo.Distance(i, k)
		djk := topo.Distance(j, k)
		if i != j && j != k && i != k {
			max := dij
			if djk > max {
				max = djk
			}
			if dik > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIDUnknown(t *testing.T) {
	topo := PaperExample()
	if id := topo.NodeID("nope"); id != -1 {
		t.Fatalf("NodeID(nope) = %d, want -1", id)
	}
}

func BenchmarkParseConfigLarge(b *testing.B) {
	var buf bytes.Buffer
	if err := Intrepid().WriteConfig(&buf); err != nil {
		b.Fatal(err)
	}
	conf := buf.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseConfig(strings.NewReader(conf)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistance(b *testing.B) {
	topo := Mira()
	n := topo.NumNodes()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += topo.Distance(i%n, (i*7919)%n)
	}
	_ = sum
}

// TestLeafNodes checks the leaf → node-ID accessor against LeafOf.
func TestLeafNodes(t *testing.T) {
	topo := MustGenerate(Spec{NodesPerLeaf: 3, Fanouts: []int{4, 2}})
	seen := 0
	for l := 0; l < topo.NumLeaves(); l++ {
		ids := topo.LeafNodes(l)
		if len(ids) != 3 {
			t.Fatalf("leaf %d has %d nodes, want 3", l, len(ids))
		}
		for _, id := range ids {
			if topo.LeafOf(id) != l {
				t.Fatalf("LeafOf(%d) = %d, want %d", id, topo.LeafOf(id), l)
			}
			seen++
		}
	}
	if seen != topo.NumNodes() {
		t.Fatalf("leaves cover %d nodes, want %d", seen, topo.NumNodes())
	}
}
