package hostlist

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestExpandSimple(t *testing.T) {
	cases := []struct {
		expr string
		want []string
	}{
		{"n0", []string{"n0"}},
		{"n[0-3]", []string{"n0", "n1", "n2", "n3"}},
		{"n[0-1],m[5-6]", []string{"n0", "n1", "m5", "m6"}},
		{"n[0,2,4]", []string{"n0", "n2", "n4"}},
		{"n[0-1,7]", []string{"n0", "n1", "n7"}},
		{"node[001-003]", []string{"node001", "node002", "node003"}},
		{"rack[1-2]sw", []string{"rack1sw", "rack2sw"}},
		{"a1,b2,c3", []string{"a1", "b2", "c3"}},
		{"s[0-1]", []string{"s0", "s1"}},
		{"", nil},
		{"  ", nil},
		{"n[10-12]", []string{"n10", "n11", "n12"}},
		{"n[9223372036854775806-9223372036854775807]", []string{"n9223372036854775806", "n9223372036854775807"}},
	}
	for _, c := range cases {
		got, err := Expand(c.expr)
		if err != nil {
			t.Errorf("Expand(%q) error: %v", c.expr, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Expand(%q) = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestExpandErrors(t *testing.T) {
	bad := []string{
		"n[",
		"n[0-3",
		"n0-3]",
		"n[[0-3]]",
		"n[]",
		"n[3-0]",
		"n[a-b]",
		"n[0-3],",
		",n0",
	}
	for _, expr := range bad {
		if _, err := Expand(expr); err == nil {
			t.Errorf("Expand(%q): expected error, got none", expr)
		}
	}
}

func TestCountMatchesExpand(t *testing.T) {
	exprs := []string{
		"n0", "n[0-3]", "n[0-1],m[5-6]", "n[0,2,4]", "node[001-099]",
		"a1,b2,c3", "n[0-1023]", "",
	}
	for _, expr := range exprs {
		names, err := Expand(expr)
		if err != nil {
			t.Fatalf("Expand(%q): %v", expr, err)
		}
		n, err := Count(expr)
		if err != nil {
			t.Fatalf("Count(%q): %v", expr, err)
		}
		if n != len(names) {
			t.Errorf("Count(%q) = %d, want %d", expr, n, len(names))
		}
	}
}

func TestCompressRoundTrip(t *testing.T) {
	cases := []struct {
		names []string
		want  string
	}{
		{[]string{"n0", "n1", "n2", "n3"}, "n[0-3]"},
		{[]string{"n0"}, "n0"},
		{[]string{"n0", "n2"}, "n[0,2]"},
		{[]string{"n3", "n1", "n2"}, "n[1-3]"},
		{[]string{"a1", "b1"}, "a1,b1"},
		{[]string{"node001", "node002"}, "node[001-002]"},
		{[]string{"login"}, "login"},
	}
	for _, c := range cases {
		got := Compress(c.names)
		if got != c.want {
			t.Errorf("Compress(%v) = %q, want %q", c.names, got, c.want)
		}
	}
}

func TestCompressExpandIdentity(t *testing.T) {
	// Compress followed by Expand must yield the same set of names.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		seen := make(map[string]bool)
		var names []string
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			name := "n" + string(rune('a'+rng.Intn(3))) + itoa(rng.Intn(100))
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
		expr := Compress(names)
		back, err := Expand(expr)
		if err != nil {
			t.Fatalf("Expand(Compress(%v)=%q): %v", names, expr, err)
		}
		if len(back) != len(names) {
			t.Fatalf("round trip size mismatch: %v -> %q -> %v", names, expr, back)
		}
		for _, b := range back {
			if !seen[b] {
				t.Fatalf("round trip invented %q (expr %q)", b, expr)
			}
		}
	}
}

// TestCompressOrderIndependent holds Compress to its promise of a
// deterministic output: every order of a set whose prefix holds the same
// numbers at two widths (and repeats a verbatim name's neighbours) renders
// the same expression.
func TestCompressOrderIndependent(t *testing.T) {
	set := []string{"n01", "n1", "n2", "n02", "n3", "m", "n"}
	const want = "n[1,01,2,02,3],m,n"
	var permute func(k int)
	permute = func(k int) {
		if k == len(set) {
			if got := Compress(set); got != want {
				t.Fatalf("Compress(%v) = %q, want %q", set, got, want)
			}
			return
		}
		for i := k; i < len(set); i++ {
			set[k], set[i] = set[i], set[k]
			permute(k + 1)
			set[k], set[i] = set[i], set[k]
		}
	}
	permute(0)
}

// TestTableAppend renders subsets of a table in any order, and checks that
// rendering into a buffer with room allocates nothing, sorting included.
func TestTableAppend(t *testing.T) {
	names := []string{"c3", "c1", "login", "c2", "gpu007", "c10", "gpu008", "c0"}
	tab := NewTable(names)
	for _, c := range []struct {
		ids  []int
		want string
	}{
		{[]int{1, 3, 0}, "c[1-3]"},
		{[]int{0, 2, 1}, "c[1,3],login"},
		{[]int{6, 4}, "gpu[007-008]"},
		{[]int{5}, "c10"},
		{[]int{7, 6, 5, 4, 3, 2, 1, 0}, "c[0-3,10],gpu[007-008],login"},
		{nil, ""},
	} {
		if got := string(tab.Append(nil, c.ids)); got != c.want {
			t.Errorf("Append(%v) = %q, want %q", c.ids, got, c.want)
		}
	}
	buf := make([]byte, 0, 64)
	ids := []int{7, 6, 5, 4, 3, 2, 1, 0}
	if allocs := testing.AllocsPerRun(20, func() {
		slices.Reverse(ids) // every other run arrives out of order
		buf = tab.Append(buf[:0], ids)
	}); allocs != 0 {
		t.Errorf("Append allocated %.1f times per call, want 0", allocs)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// Property: for any contiguous range, Expand(prefix[lo-hi]) has hi-lo+1
// entries, all with the prefix, in ascending order.
func TestExpandRangeProperty(t *testing.T) {
	f := func(loRaw, spanRaw uint16) bool {
		lo := int(loRaw % 500)
		span := int(spanRaw % 200)
		hi := lo + span
		expr := "x[" + itoa(lo) + "-" + itoa(hi) + "]"
		names, err := Expand(expr)
		if err != nil {
			return false
		}
		if len(names) != span+1 {
			return false
		}
		for i, name := range names {
			if !strings.HasPrefix(name, "x") {
				return false
			}
			if name != "x"+itoa(lo+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExpand1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Expand("n[0-1023]"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompress1024(b *testing.B) {
	names, err := Expand("n[0-1023]")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(names)
	}
}
