package collective

import (
	"testing"
	"testing/quick"
)

func TestAlltoallPow2(t *testing.T) {
	steps := Alltoall.MustSchedule(8)
	if len(steps) != 7 {
		t.Fatalf("Alltoall(8): %d steps, want 7", len(steps))
	}
	// Every step is a perfect matching, and across all steps every pair of
	// distinct ranks communicates exactly once (the defining property of
	// all-to-all).
	seen := make(map[Pair]int)
	for k, st := range steps {
		if len(st.Pairs) != 4 {
			t.Fatalf("step %d: %d pairs, want 4", k, len(st.Pairs))
		}
		used := map[int]bool{}
		for _, p := range st.Pairs {
			if used[p.A] || used[p.B] {
				t.Fatalf("step %d: rank reused in %v", k, st.Pairs)
			}
			used[p.A], used[p.B] = true, true
			seen[p]++
		}
	}
	if len(seen) != 8*7/2 {
		t.Fatalf("covered %d pairs, want 28", len(seen))
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("pair %v communicated %d times", p, n)
		}
	}
}

func TestAlltoallNonPow2(t *testing.T) {
	for _, ranks := range []int{3, 5, 6, 7, 12} {
		steps := Alltoall.MustSchedule(ranks)
		if len(steps) != ranks-1 {
			t.Fatalf("Alltoall(%d): %d steps", ranks, len(steps))
		}
		seen := make(map[Pair]bool)
		for _, st := range steps {
			for _, p := range st.Pairs {
				if p.A >= p.B || p.B >= ranks {
					t.Fatalf("bad pair %v", p)
				}
				seen[p] = true
			}
		}
		if want := ranks * (ranks - 1) / 2; len(seen) != want {
			t.Fatalf("Alltoall(%d) covered %d pairs, want %d", ranks, len(seen), want)
		}
	}
}

func TestAlltoallProperties(t *testing.T) {
	f := func(raw uint8) bool {
		ranks := int(raw)%60 + 2
		steps := Alltoall.MustSchedule(ranks)
		for _, st := range steps {
			if st.MsgSize != 1 || len(st.Pairs) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallParse(t *testing.T) {
	p, err := ParsePattern("alltoall")
	if err != nil || p != Alltoall {
		t.Fatalf("ParsePattern = %v, %v", p, err)
	}
	if Alltoall.String() != "Alltoall" {
		t.Fatal("String mismatch")
	}
}
