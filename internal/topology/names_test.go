package topology

import (
	"bytes"
	"strconv"
	"sync"
	"testing"
)

// TestGeneratedNames holds the names a generated topology lists on first
// use to the prefix + decimal ID scheme, and NodeID to its inverse.
func TestGeneratedNames(t *testing.T) {
	cases := []struct {
		name   string
		topo   *Topology
		prefix string
	}{
		{"Theta", Theta(), "n"},
		{"Mira", Mira(), "n"},
		{"prefix", MustGenerate(Spec{NodesPerLeaf: 5, Fanouts: []int{3, 2}, NodePrefix: "nid"}), "nid"},
		{"uneven", MustGenerate(Spec{NodesPerLeaf: 16, Fanouts: []int{4}, UnevenLast: 2}), "n"},
		{"uneven wide", MustGenerate(Spec{NodesPerLeaf: 4, Fanouts: []int{3}, UnevenLast: 7}), "n"},
	}
	for _, c := range cases {
		for id := 0; id < c.topo.NumNodes(); id++ {
			name := c.topo.NodeName(id)
			if want := c.prefix + strconv.Itoa(id); name != want {
				t.Fatalf("%s: NodeName(%d) = %q, want %q", c.name, id, name, want)
			}
			if got := c.topo.NodeID(name); got != id {
				t.Fatalf("%s: NodeID(%q) = %d, want %d", c.name, name, got, id)
			}
		}
		all := make([]int, c.topo.NumNodes())
		for id := range all {
			all[id] = id
		}
		got := string(c.topo.NameTable().Append(nil, all))
		if want := c.prefix + "[0-" + strconv.Itoa(len(all)-1) + "]"; got != want {
			t.Errorf("%s: name table renders every node as %q, want %q", c.name, got, want)
		}
	}
	theta := Theta()
	for _, name := range []string{"", "n", "n01", "n-1", "n4392", "N0", "x0"} {
		if id := theta.NodeID(name); id != -1 {
			t.Errorf("Theta: NodeID(%q) = %d, want -1", name, id)
		}
	}
}

// TestUnevenLastLeaves checks the leaf sizes of UnevenLast specs, smaller
// and larger than NodesPerLeaf, and that the leaves number every node once.
func TestUnevenLastLeaves(t *testing.T) {
	for _, last := range []int{2, 7} {
		topo := MustGenerate(Spec{NodesPerLeaf: 4, Fanouts: []int{3}, UnevenLast: last})
		if got, want := topo.NumNodes(), 8+last; got != want {
			t.Fatalf("UnevenLast %d: NumNodes = %d, want %d", last, got, want)
		}
		next := 0
		for l := 0; l < topo.NumLeaves(); l++ {
			want := 4
			if l == topo.NumLeaves()-1 {
				want = last
			}
			ids := topo.LeafNodes(l)
			if len(ids) != want {
				t.Fatalf("UnevenLast %d: leaf %d has %d nodes, want %d", last, l, len(ids), want)
			}
			for _, id := range ids {
				if id != next {
					t.Fatalf("UnevenLast %d: leaf %d lists node %d, want %d", last, l, id, next)
				}
				next++
			}
		}
	}
}

// thetaConf is Theta's topology.conf, byte for byte.
const thetaConf = `SwitchName=s0 Nodes=n[0-365]
SwitchName=s1 Nodes=n[366-731]
SwitchName=s2 Nodes=n[732-1097]
SwitchName=s3 Nodes=n[1098-1463]
SwitchName=s4 Nodes=n[1464-1829]
SwitchName=s5 Nodes=n[1830-2195]
SwitchName=s6 Nodes=n[2196-2561]
SwitchName=s7 Nodes=n[2562-2927]
SwitchName=s8 Nodes=n[2928-3293]
SwitchName=s9 Nodes=n[3294-3659]
SwitchName=s10 Nodes=n[3660-4025]
SwitchName=s11 Nodes=n[4026-4391]
SwitchName=s12 Switches=s[0-11]
`

func TestWriteConfigTheta(t *testing.T) {
	var buf bytes.Buffer
	if err := Theta().WriteConfig(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != thetaConf {
		t.Fatalf("WriteConfig(Theta) =\n%s\nwant\n%s", buf.String(), thetaConf)
	}
}

// TestNamesConcurrentFirstUse lists the names of a fresh topology from two
// goroutines at once; run it under -race.
func TestNamesConcurrentFirstUse(t *testing.T) {
	for _, topo := range []*Topology{Theta(), mustParse(t, figure2Conf)} {
		var wg sync.WaitGroup
		var list string
		var id int
		wg.Add(2)
		go func() {
			defer wg.Done()
			list = string(topo.NameTable().Append(nil, []int{0, 1, 2}))
		}()
		go func() {
			defer wg.Done()
			id = topo.NodeID("n3")
		}()
		wg.Wait()
		if list != "n[0-2]" || id != 3 {
			t.Fatalf("nodes 0-2 render as %q and NodeID(n3) = %d; want n[0-2] and 3", list, id)
		}
	}
}

// TestGenerateAllocs pins what building Mira allocates: its 49,152 nodes
// are numbered, not named, until a caller asks for a name.
func TestGenerateAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(3, func() { Mira() }); allocs > 1000 {
		t.Fatalf("Mira() makes %.0f allocations, want <= 1000", allocs)
	}
}

// BenchmarkGenerate builds the two paper machines the sweeps build.
func BenchmarkGenerate(b *testing.B) {
	for _, m := range []struct {
		name  string
		build func() *Topology
	}{{"Mira", Mira}, {"Theta", Theta}} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.build()
			}
		})
	}
}
