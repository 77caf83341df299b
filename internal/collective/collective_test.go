package collective

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRDFigure3(t *testing.T) {
	// Figure 3 of the paper: recursive doubling over 8 ranks.
	steps := RD.MustSchedule(8)
	if len(steps) != 3 {
		t.Fatalf("RD(8): %d steps, want 3", len(steps))
	}
	want := [][]Pair{
		{{0, 1}, {2, 3}, {4, 5}, {6, 7}},
		{{0, 2}, {1, 3}, {4, 6}, {5, 7}},
		{{0, 4}, {1, 5}, {2, 6}, {3, 7}},
	}
	for k, st := range steps {
		if st.MsgSize != 1 {
			t.Errorf("RD step %d msize = %v, want 1", k, st.MsgSize)
		}
		if len(st.Pairs) != len(want[k]) {
			t.Fatalf("RD step %d: %v, want %v", k, st.Pairs, want[k])
		}
		for i, p := range st.Pairs {
			if p != want[k][i] {
				t.Fatalf("RD step %d: %v, want %v", k, st.Pairs, want[k])
			}
		}
	}
}

func TestRHVDVectorDoubling(t *testing.T) {
	steps := RHVD.MustSchedule(8)
	if len(steps) != 3 {
		t.Fatalf("RHVD(8): %d steps, want 3", len(steps))
	}
	// Distance halves: 4, 2, 1. Message doubles: 1, 2, 4.
	wantSizes := []float64{1, 2, 4}
	wantFirstPair := []Pair{{0, 4}, {0, 2}, {0, 1}}
	for k, st := range steps {
		if st.MsgSize != wantSizes[k] {
			t.Errorf("RHVD step %d msize = %v, want %v", k, st.MsgSize, wantSizes[k])
		}
		if st.Pairs[0] != wantFirstPair[k] {
			t.Errorf("RHVD step %d first pair = %v, want %v", k, st.Pairs[0], wantFirstPair[k])
		}
		if len(st.Pairs) != 4 {
			t.Errorf("RHVD step %d: %d pairs, want 4", k, len(st.Pairs))
		}
	}
	// In recursive halving, the first half never talks to the second half
	// after the first step (§6.1). Check: no pair spans rank 4 after step 0.
	for k := 1; k < len(steps); k++ {
		for _, p := range steps[k].Pairs {
			if p.A < 4 && p.B >= 4 {
				t.Errorf("RHVD step %d pair %v crosses the halves", k, p)
			}
		}
	}
}

func TestBinomial(t *testing.T) {
	steps := Binomial.MustSchedule(8)
	if len(steps) != 3 {
		t.Fatalf("Binomial(8): %d steps, want 3", len(steps))
	}
	wantCounts := []int{1, 2, 4}
	for k, st := range steps {
		if len(st.Pairs) != wantCounts[k] {
			t.Errorf("Binomial step %d: %d pairs, want %d", k, len(st.Pairs), wantCounts[k])
		}
	}
	if steps[0].Pairs[0] != (Pair{0, 1}) {
		t.Errorf("Binomial step 0 = %v, want (0,1)", steps[0].Pairs[0])
	}
	// Non-power-of-two: 6 ranks reaches everyone in ceil(log2 6) = 3 steps.
	steps = Binomial.MustSchedule(6)
	if len(steps) != 3 {
		t.Fatalf("Binomial(6): %d steps, want 3", len(steps))
	}
	reached := map[int]bool{0: true}
	for _, st := range steps {
		for _, p := range st.Pairs {
			if !reached[p.A] {
				t.Fatalf("Binomial(6): sender %d not yet reached", p.A)
			}
			reached[p.B] = true
		}
	}
	if len(reached) != 6 {
		t.Fatalf("Binomial(6) reached %d ranks, want 6", len(reached))
	}
}

func TestRing(t *testing.T) {
	steps := Ring.MustSchedule(5)
	if len(steps) != 4 {
		t.Fatalf("Ring(5): %d steps, want 4", len(steps))
	}
	for _, st := range steps {
		if len(st.Pairs) != 5 {
			t.Fatalf("Ring(5) step has %d pairs, want 5", len(st.Pairs))
		}
	}
	steps = Ring.MustSchedule(2)
	if len(steps) != 1 || len(steps[0].Pairs) != 1 {
		t.Fatalf("Ring(2) = %v, want one step with one pair", steps)
	}
}

func TestSingleRankAndErrors(t *testing.T) {
	for _, p := range []Pattern{RD, RHVD, Binomial, Ring} {
		steps, err := p.Schedule(1)
		if err != nil || steps != nil {
			t.Errorf("%v.Schedule(1) = %v, %v; want nil, nil", p, steps, err)
		}
		if _, err := p.Schedule(0); err == nil {
			t.Errorf("%v.Schedule(0): expected error", p)
		}
		if _, err := p.Schedule(-3); err == nil {
			t.Errorf("%v.Schedule(-3): expected error", p)
		}
	}
	if _, err := Pattern(99).Schedule(4); err == nil {
		t.Error("unknown pattern: expected error")
	}
}

func TestNonPowerOfTwoRD(t *testing.T) {
	// 6 ranks: r = 2, pre/post steps fold ranks 0,1 and 2,3; survivors are
	// 1, 3, 4, 5.
	steps := RD.MustSchedule(6)
	if len(steps) != 4 { // pre + 2 + post
		t.Fatalf("RD(6): %d steps, want 4", len(steps))
	}
	pre := steps[0].Pairs
	if len(pre) != 2 || pre[0] != (Pair{0, 1}) || pre[1] != (Pair{2, 3}) {
		t.Fatalf("RD(6) pre = %v", pre)
	}
	// Middle steps involve only survivors.
	survivors := map[int]bool{1: true, 3: true, 4: true, 5: true}
	for k := 1; k <= 2; k++ {
		for _, p := range steps[k].Pairs {
			if !survivors[p.A] || !survivors[p.B] {
				t.Fatalf("RD(6) step %d pair %v uses folded rank", k, p)
			}
		}
	}
	if post := steps[3].Pairs; len(post) != 2 {
		t.Fatalf("RD(6) post = %v", post)
	}
}

// Properties common to all schedules: pairs are normalised (A < B), ranks
// in range, and per step no rank appears in two pairs (single-port model,
// which holds for RD/RHVD/Binomial; ring is exchange-based so each rank
// appears exactly twice as send+recv — checked separately).
func TestScheduleProperties(t *testing.T) {
	f := func(ranksRaw uint8, pRaw uint8) bool {
		ranks := int(ranksRaw%130) + 2
		p := []Pattern{RD, RHVD, Binomial}[pRaw%3]
		steps := p.MustSchedule(ranks)
		for _, st := range steps {
			if st.MsgSize <= 0 {
				return false
			}
			used := make(map[int]bool)
			for _, pair := range st.Pairs {
				if pair.A >= pair.B || pair.A < 0 || pair.B >= ranks {
					return false
				}
				if used[pair.A] || used[pair.B] {
					return false
				}
				used[pair.A] = true
				used[pair.B] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Power-of-two RD/RHVD steps are perfect matchings: every rank communicates
// every step.
func TestPow2PerfectMatching(t *testing.T) {
	for _, p := range []Pattern{RD, RHVD} {
		for _, ranks := range []int{2, 4, 8, 16, 64, 256} {
			for k, st := range p.MustSchedule(ranks) {
				if len(st.Pairs)*2 != ranks {
					t.Fatalf("%v(%d) step %d: %d pairs, want %d",
						p, ranks, k, len(st.Pairs), ranks/2)
				}
			}
		}
	}
}

func TestTotalVolumeRHVDExceedsRD(t *testing.T) {
	for _, ranks := range []int{4, 8, 64, 512} {
		rd := TotalVolume(RD.MustSchedule(ranks))
		rhvd := TotalVolume(RHVD.MustSchedule(ranks))
		if rhvd <= rd {
			t.Errorf("ranks %d: RHVD volume %v <= RD volume %v", ranks, rhvd, rd)
		}
	}
	messages := 0
	for _, st := range RD.MustSchedule(8) {
		messages += len(st.Pairs)
	}
	if messages != 12 {
		t.Errorf("RD(8) messages = %d, want 12", messages)
	}
}

func TestParsePattern(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Pattern
	}{
		{"rd", RD}, {"RD", RD}, {"RHVD", RHVD}, {"binomial", Binomial},
		{"Ring", Ring}, {" rd ", RD},
	} {
		got, err := ParsePattern(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePattern(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParsePattern("nope"); err == nil {
		t.Error("ParsePattern(nope): expected error")
	}
	if RD.String() != "RD" || Pattern(42).String() == "" {
		t.Error("Pattern.String mismatch")
	}
}

// patternAliases is every name ParsePattern takes, lowered.
var patternAliases = map[string]Pattern{
	"rd": RD, "recursive-doubling": RD, "recursivedoubling": RD,
	"rhvd": RHVD, "recursive-halving-vector-doubling": RHVD,
	"binomial": Binomial, "binomial-tree": Binomial, "btree": Binomial,
	"ring": Ring, "stencil": Stencil, "stencil2d": Stencil,
	"alltoall": Alltoall, "a2a": Alltoall, "pairwise": Alltoall,
}

// mixedCase spells s with every other ASCII letter in capitals.
func mixedCase(s string) string {
	b := []byte(s)
	for i := 0; i < len(b); i += 2 {
		if 'a' <= b[i] && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

// A name is matched as strings.ToLower lowers it, whatever its case and
// the space around it, and a valid one allocates nothing.
func TestParsePatternAliases(t *testing.T) {
	var names []string
	for alias, want := range patternAliases {
		for _, in := range []string{alias, strings.ToUpper(alias), mixedCase(alias), " \t" + mixedCase(alias) + "\n"} {
			if got, err := ParsePattern(in); err != nil || got != want {
				t.Errorf("ParsePattern(%q) = %v, %v; want %v", in, got, err, want)
			}
			names = append(names, in)
		}
	}
	// Unicode lowering maps a dotted capital I onto i; a long s stays what it is.
	if got, err := ParsePattern("B\u0130NOMIAL"); err != nil || got != Binomial {
		t.Errorf("ParsePattern(B\u0130NOMIAL) = %v, %v", got, err)
	}
	for _, in := range []string{"Star", "\u017ftencil", "recursive-halving-vector-doubling-x", " "} {
		if _, err := ParsePattern(in); err == nil || err.Error() != `collective: unknown pattern "`+in+`"` {
			t.Errorf("ParsePattern(%q): %v", in, err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, in := range names {
			if _, err := ParsePattern(in); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("parsing %d valid names allocates %.1f times, want 0", len(names), allocs)
	}
}

func TestMixes(t *testing.T) {
	for _, m := range ExperimentSets {
		if err := m.Validate(); err != nil {
			t.Errorf("mix %s: %v", m.Name, err)
		}
	}
	if f := SetC.CommFrac(); f < 0.699 || f > 0.701 {
		t.Errorf("SetC CommFrac = %v, want 0.70", f)
	}
	p, ok := SetE.PrimaryPattern()
	if !ok || p != Binomial {
		t.Errorf("SetE primary = %v, %v; want Binomial, true", p, ok)
	}
	if _, ok := SinglePattern(RD, 0).PrimaryPattern(); ok {
		t.Error("zero-comm mix should have no primary pattern")
	}
	bad := Mix{Name: "bad", ComputeFrac: 0.9, Comms: []Component{{RD, 0.5}}}
	if err := bad.Validate(); err == nil {
		t.Error("non-unit mix accepted")
	}
	neg := Mix{Name: "neg", ComputeFrac: -0.1, Comms: []Component{{RD, 1.1}}}
	if err := neg.Validate(); err == nil {
		t.Error("negative compute fraction accepted")
	}
	negc := Mix{Name: "negc", ComputeFrac: 1.5, Comms: []Component{{RD, -0.5}}}
	if err := negc.Validate(); err == nil {
		t.Error("negative comm fraction accepted")
	}
	single := SinglePattern(RHVD, 0.9)
	if err := single.Validate(); err != nil {
		t.Errorf("SinglePattern: %v", err)
	}
	if single.CommFrac() != 0.9 {
		t.Errorf("SinglePattern CommFrac = %v", single.CommFrac())
	}
}

func BenchmarkScheduleRD4096(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RD.MustSchedule(4096)
	}
}

func BenchmarkScheduleRHVD4096(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RHVD.MustSchedule(4096)
	}
}
