package costmodel

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/collective"
)

// Schedule memoization: a collective schedule is a pure function of
// (pattern, rank count), and the scheduler's hot paths price the same one
// repeatedly — the adaptive selector costs its distinct candidates per
// request, the simulator costs the chosen and the reference allocation per
// job start, and rank remapping's hill climb re-prices it for every swap.
// Pricing reads a schedule in block form only, so that is all the memo
// keeps. Entries are immutable once published.

// maxScheduleBytes bounds what the memo holds, so pathological traces
// (tens of thousands of distinct job sizes) cannot pin unbounded memory. It
// counts every entry's blocks — 56 B each plus 40 B per step; every
// (pattern, size) of the 512-node Theta trace's three patterns together take
// about 2 MB — plus the pages that index them. Nothing is evicted: once a
// schedule does not fit, pricing generates its blocks afresh on every call
// (O(steps) for the closed forms).
const maxScheduleBytes = 32 << 20

// The memo indexes entries by rank count in pages of memoPageSize, one
// directory of pages per pattern.
const (
	memoPageBits = 8
	memoPageSize = 1 << memoPageBits
)

// memoSchedule is one memo entry: the schedule in block form.
type memoSchedule struct {
	blocks []collective.BlockStep
}

type memoPage [memoPageSize]atomic.Pointer[memoSchedule]

// scheduleMemo maps (pattern, rank count) to a memo entry. A lookup is two
// atomic loads and two index operations, with no lock and no hashing;
// inserts take mu, which keeps the byte count exact however many
// goroutines touch new sizes at once.
type scheduleMemo struct {
	max   int64
	dirs  [256]atomic.Pointer[[]*memoPage] // pattern -> pages by n>>memoPageBits, replaced whole to grow
	mu    sync.Mutex                       // serialises inserts, directory growth and bytes
	bytes int64
}

// schedules is the process's one schedule memo. It is process-global on
// purpose: sweep cells, simulations and the daemon all price the same few
// thousand schedules, and each entry is immutable once published.
var schedules = scheduleMemo{max: maxScheduleBytes}

// lookup returns the entry of pattern's schedule at n ranks, or nil.
func (m *scheduleMemo) lookup(p collective.Pattern, n int) *memoSchedule {
	if d := m.dirs[p].Load(); d != nil && uint(n)>>memoPageBits < uint(len(*d)) {
		if pg := (*d)[n>>memoPageBits]; pg != nil {
			return pg[n&(memoPageSize-1)].Load()
		}
	}
	return nil
}

// entry returns the memo entry of pattern's schedule at n ranks, made on
// first use, and whether the memo keeps it. A schedule the bound refuses
// gets an entry of its own, not kept, with its blocks generated for this
// call.
func (m *scheduleMemo) entry(p collective.Pattern, n int) (*memoSchedule, bool, error) {
	if e := m.lookup(p, n); e != nil {
		return e, true, nil
	}
	blocks, err := p.Blocks(n)
	if err != nil {
		return nil, false, err
	}
	e := &memoSchedule{blocks: blocks}
	m.mu.Lock()
	defer m.mu.Unlock()
	if kept := m.lookup(p, n); kept != nil { // another goroutine made it first
		return kept, true, nil
	}
	slot, grow := m.slot(p, n)
	size := blocksBytes(blocks) + grow
	if m.bytes+size > m.max {
		return e, false, nil
	}
	if slot == nil {
		slot = m.grow(p, n)
	}
	m.bytes += size
	slot.Store(e)
	return e, true, nil
}

// slot returns the slot of (p, n) if its page exists, else the bytes the
// page and a grown directory would add. Called with mu held.
func (m *scheduleMemo) slot(p collective.Pattern, n int) (*atomic.Pointer[memoSchedule], int64) {
	var dir []*memoPage
	if d := m.dirs[p].Load(); d != nil {
		dir = *d
	}
	i := n >> memoPageBits
	if i < len(dir) && dir[i] != nil {
		return &dir[i][n&(memoPageSize-1)], 0
	}
	grow := int64(unsafe.Sizeof(memoPage{}))
	if i >= len(dir) {
		grow += int64(i+1-len(dir)) * int64(unsafe.Sizeof((*memoPage)(nil)))
	}
	return nil, grow
}

// grow adds the page of (p, n), publishing a new directory, and returns
// its slot. Called with mu held.
func (m *scheduleMemo) grow(p collective.Pattern, n int) *atomic.Pointer[memoSchedule] {
	var old []*memoPage
	if d := m.dirs[p].Load(); d != nil {
		old = *d
	}
	i := n >> memoPageBits
	dir := make([]*memoPage, max(len(old), i+1))
	copy(dir, old)
	dir[i] = new(memoPage)
	m.dirs[p].Store(&dir)
	return &dir[i][n&(memoPageSize-1)]
}

// blocksBytes is what an entry holding blocks takes.
func blocksBytes(blocks []collective.BlockStep) int64 {
	b := int64(unsafe.Sizeof(memoSchedule{})) + int64(cap(blocks))*int64(unsafe.Sizeof(collective.BlockStep{}))
	for _, bs := range blocks {
		b += int64(cap(bs.Blocks)) * int64(unsafe.Sizeof(collective.Block{}))
	}
	return b
}

// ScheduleFor returns pattern's schedule at n ranks as pair lists, built
// afresh on every call. Only the node-pair reference loop reads pair lists
// (a reference state's pricing, and a list the run view cannot express), so
// the memo never holds them and the differential runs never read the memo.
// It stays exported because the benchmark harness's shadow replay times it.
func ScheduleFor(p collective.Pattern, n int) ([]collective.Step, error) {
	return p.Schedule(n)
}

// blocksFor returns pattern's schedule at n ranks in block form: the
// memo's, else generated afresh.
func blocksFor(p collective.Pattern, n int) ([]collective.BlockStep, error) {
	e, _, err := schedules.entry(p, n)
	if err != nil {
		return nil, err
	}
	return e.blocks, nil
}
