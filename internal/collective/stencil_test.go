package collective

import (
	"testing"
	"testing/quick"
)

func TestGridShape(t *testing.T) {
	cases := []struct{ ranks, rows, cols int }{
		{16, 4, 4},
		{12, 3, 4},
		{8, 2, 4},
		{7, 1, 7},
		{36, 6, 6},
		{2, 1, 2},
		{9, 3, 3},
	}
	for _, c := range cases {
		r, co := gridShape(c.ranks)
		if r != c.rows || co != c.cols {
			t.Errorf("gridShape(%d) = %dx%d, want %dx%d", c.ranks, r, co, c.rows, c.cols)
		}
	}
}

func TestStencil4x4(t *testing.T) {
	steps := Stencil.MustSchedule(16)
	if len(steps) != 4 {
		t.Fatalf("Stencil(16): %d steps, want 4", len(steps))
	}
	// Horizontal even: 2 pairs per row × 4 rows = 8; horizontal odd: 1×4;
	// vertical even: 8; vertical odd: 4.
	wantCounts := []int{8, 4, 8, 4}
	for k, st := range steps {
		if len(st.Pairs) != wantCounts[k] {
			t.Errorf("step %d: %d pairs, want %d", k, len(st.Pairs), wantCounts[k])
		}
		if st.MsgSize != 1 {
			t.Errorf("step %d msize = %v", k, st.MsgSize)
		}
	}
	// First step contains (0,1) (row 0, cols 0-1) and (4,5).
	if steps[0].Pairs[0] != (Pair{0, 1}) {
		t.Errorf("step 0 first pair = %v", steps[0].Pairs[0])
	}
}

func TestStencilChain(t *testing.T) {
	// Prime rank count: 1×7 chain, two matchings only.
	steps := Stencil.MustSchedule(7)
	if len(steps) != 2 {
		t.Fatalf("Stencil(7): %d steps, want 2", len(steps))
	}
	if len(steps[0].Pairs) != 3 || len(steps[1].Pairs) != 3 {
		t.Fatalf("chain matchings: %d, %d", len(steps[0].Pairs), len(steps[1].Pairs))
	}
}

// Stencil steps are matchings (single-port) over valid ranks, and every
// grid-adjacent pair appears exactly once across the schedule.
func TestStencilProperties(t *testing.T) {
	f := func(ranksRaw uint8) bool {
		ranks := int(ranksRaw)%120 + 2
		steps := Stencil.MustSchedule(ranks)
		seen := make(map[Pair]int)
		for _, st := range steps {
			used := make(map[int]bool)
			for _, p := range st.Pairs {
				if p.A >= p.B || p.A < 0 || p.B >= ranks {
					return false
				}
				if used[p.A] || used[p.B] {
					return false
				}
				used[p.A] = true
				used[p.B] = true
				seen[p]++
			}
		}
		rows, cols := gridShape(ranks)
		want := rows*(cols-1) + (rows-1)*cols // grid edges
		if len(seen) != want {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStencilParseAndString(t *testing.T) {
	p, err := ParsePattern("stencil")
	if err != nil || p != Stencil {
		t.Fatalf("ParsePattern(stencil) = %v, %v", p, err)
	}
	if Stencil.String() != "Stencil" {
		t.Fatalf("String = %q", Stencil.String())
	}
	if steps, err := Stencil.Schedule(1); err != nil || steps != nil {
		t.Fatalf("Stencil(1) = %v, %v", steps, err)
	}
}
