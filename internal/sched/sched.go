// Package sched is the FIFO + EASY-backfilling scheduling core shared by
// the offline simulator (internal/sim) and the online daemon
// (internal/daemon): the set of running jobs ordered by planned end, and the
// scheduling pass that starts queue heads while they fit and then backfills
// behind the blocked head's reservation. A head that no release can
// satisfy holds an unreachable reservation, under both front ends. The
// pending queue (Queue) is held here too, in the order its front end names,
// each job's node count beside it. Clocks, events, eligibility and
// placement stay with the front ends; they describe their jobs to the core
// through the callbacks of a Core and tell it the planned end and tiebreak
// key of every job they start.
package sched

import (
	"math"
	"slices"
	"sort"
)

// Entry is a running job as the EASY reservation sees it.
type Entry struct {
	// End is the time the scheduler plans for the job's nodes to come back.
	End float64
	// Key orders jobs with equal ends and names the job to Remove; it is
	// unique among running jobs.
	Key int64
	// Nodes is the number of nodes the job holds.
	Nodes int
}

// less is the strict total order the running set is kept in.
func less(a, b Entry) bool {
	return a.End < b.End || (a.End == b.End && a.Key < b.Key)
}

// Running is the set of running jobs, sorted by (End, Key), so the next
// completion is element 0 and a reservation is a walk over a prefix. Read it
// as a slice; change it only through Add and Remove, which keep the order.
// The zero value is an empty set.
type Running []Entry

// Add records a started job.
func (r *Running) Add(e Entry) {
	i := sort.Search(len(*r), func(i int) bool { return less(e, (*r)[i]) })
	*r = slices.Insert(*r, i, e)
}

// Remove takes the job with the given key out of the set, reporting
// whether it was there. Jobs leave mostly from the front (completions), so
// the scan is short.
func (r *Running) Remove(key int64) (Entry, bool) {
	for i, e := range *r {
		if e.Key == key {
			*r = slices.Delete(*r, i, i+1)
			return e, true
		}
	}
	return Entry{}, false
}

// Reservation returns the earliest time need nodes become available if
// nothing else starts (the EASY shadow time), given free nodes now, and the
// number of extra free nodes at that time beyond need. Jobs ending at the
// same instant release in Key order and the walk stops at the first release
// that satisfies need. A need that free plus every planned release cannot
// meet (nodes are down) holds an unreachable reservation: shadow is +Inf and
// extra is free, so whatever fits the free nodes may pass it.
//
//caws:noalloc
func (r Running) Reservation(now float64, free, need int) (shadow float64, extra int) {
	if need <= free {
		return now, free - need
	}
	avail := free
	for _, e := range r {
		avail += e.Nodes
		if avail >= need {
			return e.End, avail - need
		}
	}
	return math.Inf(1), free
}

// Queue is the pending queue: the front end's handles, sorted by the strict
// total order the queue is made with (NewQueue), and beside them in a dense
// array the node count each was queued with, so a pass decides "cannot fit"
// for a job from four bytes without asking the front end about it. A job's
// node count is stated once, when it enters through Add, and does not
// change while it is queued; the pass only removes.
type Queue[J comparable] struct {
	jobs []J
	need []int32
	less func(a, b J) bool
}

// NewQueue returns an empty queue kept in the strict total order less.
func NewQueue[J comparable](less func(a, b J) bool) Queue[J] { return Queue[J]{less: less} }

// Len returns the number of queued jobs.
func (q *Queue[J]) Len() int { return len(q.jobs) }

// Jobs returns the queued handles in queue order. The slice is the queue's
// own storage: read it, and not across an Add, Remove or Pass.
func (q *Queue[J]) Jobs() []J { return q.jobs }

// Add queues j, which needs nodes nodes, where the queue's order places it:
// behind every queued job it does not sort before. A job that sorts last
// is appended without a search.
func (q *Queue[J]) Add(j J, nodes int) {
	i := len(q.jobs)
	if i > 0 && q.less(j, q.jobs[i-1]) {
		i = sort.Search(i, func(k int) bool { return q.less(j, q.jobs[k]) })
	}
	q.jobs = slices.Insert(q.jobs, i, j)
	q.need = slices.Insert(q.need, i, int32(nodes))
}

// Remove takes j out of the queue, reporting whether it was queued.
func (q *Queue[J]) Remove(j J) bool {
	i := slices.Index(q.jobs, j)
	if i < 0 {
		return false
	}
	q.jobs = slices.Delete(q.jobs, i, i+1)
	q.need = slices.Delete(q.need, i, i+1)
	return true
}

// cut closes the gap a pass left between its write index w and its read
// index i: the unvisited jobs move down, and the handles past the new end
// are zeroed so the queue keeps no job that has left it alive.
func (q *Queue[J]) cut(w, i int) {
	if w == i {
		return
	}
	n := w + copy(q.jobs[w:], q.jobs[i:])
	copy(q.need[w:], q.need[i:])
	clear(q.jobs[n:])
	q.jobs, q.need = q.jobs[:n], q.need[:n]
}

// Outcome is what a Core's Start did with the job it was offered.
type Outcome uint8

const (
	Started Outcome = iota // the job is running and leaves the queue
	Retry                  // the job could not start now and keeps its position
	Dropped                // the job leaves the queue without having run
)

// Core is one scheduler: its running set plus the front end's view of the
// machine and of its jobs, bound once at construction. J is the front end's
// handle for a queued job.
type Core[J comparable] struct {
	Running Running
	// Free returns the number of nodes a job could be given right now.
	Free func() int
	// Job describes a queued job: the runtime the scheduler plans with, and
	// whether it may start or hold the reservation now. An ineligible job
	// keeps its queue position while later jobs pass it. The nodes it needs
	// are the queue's to know (Queue.Add), which is what lets a pass skip
	// this call for every job that does not fit.
	Job func(j J) (estimate float64, eligible bool)
	// Start places and starts a job that fits Free at time now, calling
	// Running.Add with its planned end when it reports Started. An error
	// aborts the pass.
	Start func(j J, now float64) (Outcome, error)
	// Backfill enables EASY backfilling behind the blocked head; without it
	// the pass is strict FIFO.
	Backfill bool
}

// Pass runs one scheduling pass over q at time now and leaves in it the jobs
// still queued, in order, compacted in place — one O(n) sweep however many
// jobs start, and no write at all until the first one does. Eligible jobs
// start from the front while they fit; the first that does not fit, or that
// Start asks to retry, is the head, and holds a reservation at the earliest
// time the running set frees its nodes. Jobs behind the head then start if
// they fit the free nodes and either end by that time or fit the nodes the
// head will leave over; a job that does not fit the free nodes is decided
// from the queue's node counts alone. A head that even the end of every
// running job would not satisfy holds an unreachable reservation
// (Running.Reservation), so backfill may use whatever is free. On an error
// from Start the unvisited jobs stay queued.
//
//caws:noalloc
func (c *Core[J]) Pass(q *Queue[J], now float64) error {
	jobs, need := q.jobs, q.need[:len(q.jobs)]
	free := c.Free()
	w, i := 0, 0
	var out Outcome
	var err error
	for ; i < len(jobs); i++ {
		if _, eligible := c.Job(jobs[i]); !eligible {
			if w != i {
				jobs[w], need[w] = jobs[i], need[i]
			}
			w++
			continue
		}
		if int(need[i]) > free {
			break
		}
		out, err = c.Start(jobs[i], now)
		free = c.Free()
		if err != nil || out == Retry {
			break
		}
	}
	if err != nil || i == len(jobs) || !c.Backfill {
		q.cut(w, i)
		return err
	}
	head := int(need[i])
	jobs[w], need[w] = jobs[i], need[i]
	w, i = w+1, i+1
	shadow, extra := c.Running.Reservation(now, free, head)
	for ; i < len(jobs); i++ {
		if nodes := int(need[i]); nodes <= free {
			estimate, eligible := c.Job(jobs[i])
			outlives := now+estimate > shadow
			if eligible && (!outlives || nodes <= extra) {
				if out, err = c.Start(jobs[i], now); err != nil {
					break
				}
				free = c.Free()
				if out == Started && outlives {
					extra -= nodes
				}
				if out != Retry {
					continue
				}
			}
		}
		if w != i {
			jobs[w], need[w] = jobs[i], need[i]
		}
		w++
	}
	q.cut(w, i)
	return err
}
