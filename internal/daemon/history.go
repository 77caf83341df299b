package daemon

import (
	"repro/internal/cluster"
	"repro/internal/collective"
)

// The job table is the history: every admitted job owns a slot, indexed by
// its ID, from admission on, and the slot is the job's only record. The
// pending queue and the running set hold IDs, so completing, cancelling or
// dropping a job only changes its state and nothing is copied. A slot holds
// no pointer: its leaf masks and its name live in paged arenas, so the
// finished history is memory the collector never scans.

const (
	histPage  = 1024 // slots per history page: 17 whole 8 KiB spans of 136 B slots
	arenaPage = 4096 // elements per arena page; a longer run gets a page of its own
)

// histRecord is one job's slot: everything placing, completing, listing and
// snapshotting it read. It must stay free of pointers, strings, slices,
// maps and interfaces (TestHistoryRecordHasNoPointers).
type histRecord struct {
	submit, start, end float64 // virtual times
	runtime            float64 // base runtime
	exec, cost, ratio  float64 // Eq. 7 results of the last start
	refCost            float64 // Eq. 7 reference cost of the last start
	share              float64 // a comm job's communication share of its runtime
	requeuedAt         float64 // virtual time of the last kill
	lostSec            float64 // node-seconds-per-node of discarded partial work
	after              int64   // daemon job ID this one waits for (0 = none)
	nodes              int32
	requeues           int32 // times a node failure killed and requeued this job
	masks              span  // leaf masks of the last start, in history.masks
	name               span  // in history.names
	state              jobState
	class              cluster.Class
	pattern            collective.Pattern
}

// span locates a run of elements in an arena; the zero span is empty.
type span struct{ page, off, n uint32 }

// arena is append-only storage for runs of T, in pages that are allocated
// whole and never copied.
type arena[T uint64 | byte] struct{ pages [][]T }

func (a *arena[T]) add(v []T) span {
	if len(v) == 0 {
		return span{}
	}
	last := len(a.pages) - 1
	if last < 0 || cap(a.pages[last])-len(a.pages[last]) < len(v) {
		a.pages = append(a.pages, make([]T, 0, max(arenaPage, len(v))))
		last++
	}
	off := len(a.pages[last])
	a.pages[last] = append(a.pages[last], v...)
	return span{uint32(last), uint32(off), uint32(len(v))}
}

func (a *arena[T]) get(s span) []T {
	if s.n == 0 {
		return nil
	}
	return a.pages[s.page][s.off : s.off+s.n : s.off+s.n]
}

// history is the ID-indexed table of slots, in pages allocated on first
// write, and the arenas their spans point into. Job IDs are dense from 1.
type history struct {
	pages []*[histPage]histRecord
	masks arena[uint64]
	names arena[byte]
}

// slot returns job id's slot (id >= 1), making room for it.
func (h *history) slot(id int64) *histRecord {
	p := int((id - 1) / histPage)
	for len(h.pages) <= p {
		h.pages = append(h.pages, nil)
	}
	if h.pages[p] == nil {
		h.pages[p] = new([histPage]histRecord)
	}
	return &h.pages[p][(id-1)%histPage]
}

// get returns job id's slot, or nil if the daemon holds no record of it:
// never issued, or finished before the snapshot it was restored from.
func (h *history) get(id int64) *histRecord {
	if id < 1 || (id-1)/histPage >= int64(len(h.pages)) {
		return nil
	}
	pg := h.pages[(id-1)/histPage]
	if pg == nil || pg[(id-1)%histPage].state == stateNone {
		return nil
	}
	return &pg[(id-1)%histPage]
}

func (h *history) name(r *histRecord) string { return string(h.names.get(r.name)) }

func (h *history) setName(r *histRecord, name string) { r.name = h.names.add([]byte(name)) }
