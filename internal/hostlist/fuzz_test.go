package hostlist

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzExpand checks that Expand never panics, that Count always agrees
// with the expansion length, and that compressing the output re-expands to
// the same set.
func FuzzExpand(f *testing.F) {
	for _, seed := range []string{
		"n[0-3]", "n0", "a[1-2],b5", "node[001-003,007]", "x[0-0]",
		"n[", "n]", "n[0-", "n[0-3],m[9]", "p[00-10]q", ",", "[]",
		"n[5-3]", "n[1,2,3]", "a,b,c", "n[0-1023]",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		if len(expr) > 256 {
			return // bound expansion work
		}
		names, err := Expand(expr)
		if err != nil {
			return
		}
		if len(names) > 1<<16 {
			return
		}
		n, err := Count(expr)
		if err != nil {
			t.Fatalf("Expand ok but Count failed for %q: %v", expr, err)
		}
		if n != len(names) {
			t.Fatalf("Count(%q) = %d, Expand produced %d", expr, n, len(names))
		}
		// Deduplicate before the round trip: Compress collapses repeats.
		set := make(map[string]bool, len(names))
		var unique []string
		for _, name := range names {
			if !set[name] {
				set[name] = true
				unique = append(unique, name)
			}
		}
		back, err := Expand(Compress(unique))
		if err != nil {
			t.Fatalf("re-expand of Compress(%q) failed: %v", expr, err)
		}
		if len(back) != len(unique) {
			t.Fatalf("round trip of %q changed cardinality: %d -> %d",
				expr, len(unique), len(back))
		}
		for _, name := range back {
			if !set[name] {
				t.Fatalf("round trip of %q invented %q", expr, name)
			}
		}
	})
}

// FuzzTableCompress builds a name table from a random name set (shared
// prefixes, leading zeros, one number at several widths, names with no
// digits, numbers at and past the int range) and renders random subsets of
// its IDs, in random order: the table must say what Compress says of their
// names, and the expression must expand back to exactly those names.
func FuzzTableCompress(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(5))
	f.Add(int64(2), uint8(40), uint8(40))
	f.Add(int64(3), uint8(200), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, size, pick uint8) {
		rng := rand.New(rand.NewSource(seed))
		prefixes := []string{"", "n", "node", "a-b", "x1y", "n0"}
		seen := map[string]bool{}
		var names []string
		for range int(size) {
			name := prefixes[rng.Intn(len(prefixes))]
			switch rng.Intn(6) {
			case 0: // no digits
				name += string(rune('a' + rng.Intn(3)))
			case 1: // at or past the int range
				name += []string{"9223372036854775807", "9223372036854775806", "9223372036854775808", "123456789012345678901"}[rng.Intn(4)]
			default:
				num := strconv.Itoa(rng.Intn(24))
				name += strings.Repeat("0", rng.Intn(3)) + num
			}
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
		tab := NewTable(names)
		var ids []int
		var subset []string
		for id := range names {
			if rng.Intn(256) < int(pick) {
				ids = append(ids, id)
				subset = append(subset, names[id])
			}
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		got := string(tab.Append([]byte("keep:"), ids))
		if want := "keep:" + Compress(subset); got != want {
			t.Fatalf("table renders %v as %q, Compress says %q", subset, got, want)
		}
		back, err := Expand(strings.TrimPrefix(got, "keep:"))
		if err != nil {
			t.Fatalf("Expand(%q): %v", got, err)
		}
		slices.Sort(back)
		slices.Sort(subset)
		if !slices.Equal(back, subset) {
			t.Fatalf("%q expands to %v, not %v", got, back, subset)
		}
	})
}
