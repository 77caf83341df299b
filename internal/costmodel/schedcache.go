package costmodel

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/collective"
)

// Schedule memoization: a collective schedule is a pure function of
// (pattern, rank count), and the scheduler's hot paths rebuild the same
// one repeatedly — the adaptive selector costs two candidates per request,
// the simulator costs the chosen and the reference allocation per job
// start, and rank remapping's hill climb re-reads it for every swap.
// Entries are immutable; callers of ScheduleFor must never mutate the
// returned steps.

// maxScheduleEntries bounds the memo so pathological traces (thousands of
// distinct job sizes) cannot pin unbounded memory; once full, new sizes
// are built fresh on every call — at a price: the paper's full 48-cell
// grid overflows the memo, and its Mira cells then run 2.4–2.9× slower
// and allocate 11 GB instead of 0.8 (bench/README.md, finding 1).
const maxScheduleEntries = 256

type scheduleKey struct {
	p collective.Pattern
	n int
}

// pairSeg is a maximal affine stretch of one step's pairs:
// (a+stride·t, b+stride·t) for t in [0, n).
type pairSeg struct{ a, b, stride, n int32 }

// memoSchedule is one memo entry: the steps, and the pairs of every
// non-repeat step, in order, as the segments segAt finds — computed once,
// so a compile reads a few segments instead of every pair.
type memoSchedule struct {
	steps []collective.Step
	seg   []pairSeg
}

var (
	scheduleCache   sync.Map // scheduleKey -> *memoSchedule
	scheduleEntries atomic.Int64
)

// ScheduleFor returns pattern's schedule at n ranks, memoized. The result
// is shared and must be treated as read-only. Reference mode bypasses the
// memo and builds fresh, preserving the seed behaviour for differential
// runs.
func ScheduleFor(p collective.Pattern, n int) ([]collective.Step, error) {
	if referenceMode.Load() {
		return p.Schedule(n)
	}
	steps, _, err := scheduleFor(p, n)
	return steps, err
}

// scheduleFor is ScheduleFor's memo lookup; the entry is nil for a
// schedule the full memo could not keep.
func scheduleFor(p collective.Pattern, n int) ([]collective.Step, *memoSchedule, error) {
	k := scheduleKey{p, n}
	if v, ok := scheduleCache.Load(k); ok {
		m := v.(*memoSchedule)
		return m.steps, m, nil
	}
	s, err := p.Schedule(n)
	if err != nil {
		return nil, nil, err
	}
	if scheduleEntries.Load() >= maxScheduleEntries || n > math.MaxInt32 {
		return s, nil, nil
	}
	m := segmentsOf(s)
	if v, loaded := scheduleCache.LoadOrStore(k, m); loaded { //lint:allow globalmut bounded sync.Map memo insert; schedules are immutable once built
		m = v.(*memoSchedule)
	} else {
		scheduleEntries.Add(1) //lint:allow globalmut entry counter paired with the LoadOrStore above
	}
	return m.steps, m, nil
}

// segmentsOf builds a schedule's memo entry.
func segmentsOf(steps []collective.Step) *memoSchedule {
	m := &memoSchedule{steps: steps}
	var prevPairs *collective.Pair
	for _, step := range steps {
		if len(step.Pairs) == 0 || prevPairs == &step.Pairs[0] {
			continue
		}
		prevPairs = &step.Pairs[0]
		for i := 0; i < len(step.Pairs); {
			s, n := segAt(step.Pairs, i)
			m.seg = append(m.seg, pairSeg{int32(step.Pairs[i].A), int32(step.Pairs[i].B), int32(s), int32(n)})
			i += n
		}
	}
	return m
}
