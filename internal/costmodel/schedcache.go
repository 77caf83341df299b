package costmodel

import (
	"sync"
	"sync/atomic"

	"repro/internal/collective"
)

// Schedule memoization: a collective schedule is a pure function of
// (pattern, rank count), and the scheduler's hot paths need the same one
// repeatedly — the adaptive selector costs its distinct candidates per
// request, the simulator costs the chosen and the reference allocation per
// job start, and rank remapping's hill climb re-reads it for every swap.
// Entries are immutable; callers of ScheduleFor must never mutate the
// returned steps.

// maxScheduleEntries bounds the memo so pathological traces (thousands of
// distinct job sizes) cannot pin unbounded memory. What it bounds is the
// materialised pair lists: an entry that only pricing has touched holds
// its blocks — 56 B each, fifteen for 32,768-rank RD against 245,760
// pairs — plus 40 B per step, and grows a pair list only when ScheduleFor
// is asked for one (3.9 MB for that schedule). Once the memo is full a new
// size costs pricing one block generation per call (O(steps) for the closed
// forms) and costs ScheduleFor a fresh pair list per call.
const maxScheduleEntries = 256

type scheduleKey struct {
	p collective.Pattern
	n int
}

// memoSchedule is one memo entry: the schedule in block form, which is all
// pricing reads, and its pair lists once some caller has asked for them.
type memoSchedule struct {
	blocks []collective.BlockStep
	once   sync.Once
	steps  []collective.Step // collective.Expand(blocks), built by pairs
}

// pairs lists the entry's pairs, on the first call.
func (m *memoSchedule) pairs() []collective.Step {
	m.once.Do(func() { m.steps = collective.Expand(m.blocks) })
	return m.steps
}

var (
	scheduleCache   sync.Map // scheduleKey -> *memoSchedule
	scheduleEntries atomic.Int64
)

// ScheduleFor returns pattern's schedule at n ranks, memoized. The result
// is shared and must be treated as read-only.
func ScheduleFor(p collective.Pattern, n int) ([]collective.Step, error) {
	m, err := memoFor(p, n)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return scheduleRef(p, n)
	}
	return m.pairs(), nil
}

// scheduleRef is the memo's reference counterpart: the schedule built
// afresh. Candidate pricing on a reference state costs against it, so the
// differential runs never read the memo; ScheduleFor falls back to it for a
// schedule the full memo cannot keep.
func scheduleRef(p collective.Pattern, n int) ([]collective.Step, error) {
	return p.Schedule(n)
}

// blocksFor returns pattern's schedule at n ranks in block form: the
// memo's, else generated afresh.
func blocksFor(p collective.Pattern, n int) ([]collective.BlockStep, error) {
	m, err := memoFor(p, n)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return p.Blocks(n)
	}
	return m.blocks, nil
}

// memoFor returns the memo entry of pattern's schedule at n ranks, made on
// first use; nil for a schedule the full memo cannot keep.
func memoFor(p collective.Pattern, n int) (*memoSchedule, error) {
	k := scheduleKey{p, n}
	if v, ok := scheduleCache.Load(k); ok {
		return v.(*memoSchedule), nil
	}
	if scheduleEntries.Load() >= maxScheduleEntries {
		return nil, nil
	}
	blocks, err := p.Blocks(n)
	if err != nil {
		return nil, err
	}
	m := &memoSchedule{blocks: blocks}
	if v, loaded := scheduleCache.LoadOrStore(k, m); loaded { //lint:allow globalmut bounded sync.Map memo insert; schedules are immutable once built
		m = v.(*memoSchedule)
	} else {
		scheduleEntries.Add(1) //lint:allow globalmut entry counter paired with the LoadOrStore above
	}
	return m, nil
}
