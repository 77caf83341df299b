// Package sched is the FIFO + EASY-backfilling scheduling core shared by
// the offline simulator (internal/sim) and the online daemon
// (internal/daemon): the set of running jobs ordered by planned end, and the
// scheduling pass that starts queue heads while they fit and then backfills
// behind the blocked head's reservation. Clocks and events, queue order and
// insertion, and placement stay with the front ends; they describe their
// jobs to the core through the callbacks of a Core and tell it the planned
// end and tiebreak key of every job they start.
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
// that satisfies need. ok is false when need exceeds free plus every
// planned release.
//
//caws:noalloc
func (r Running) Reservation(now float64, free, need int) (shadow float64, extra int, ok bool) {
	if need <= free {
		return now, free - need, true
	}
	for _, e := range r {
		free += e.Nodes
		if free >= need {
			return e.End, free - need, true
		}
	}
	return 0, 0, false
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
type Core[J any] struct {
	Running Running
	// Free returns the number of nodes a job could be given right now.
	Free func() int
	// Job describes a queued job: the nodes it needs, the runtime the
	// scheduler plans with, and whether it may start or hold the
	// reservation now. An ineligible job keeps its queue position while
	// later jobs pass it.
	Job func(j J) (nodes int, estimate float64, eligible bool)
	// Start places and starts a job that fits Free at time now, calling
	// Running.Add with its planned end when it reports Started. An error
	// aborts the pass.
	Start func(j J, now float64) (Outcome, error)
	// Backfill enables EASY backfilling behind the blocked head; without it
	// the pass is strict FIFO.
	Backfill bool
}

// Pass runs one scheduling pass over queue at time now and returns the jobs
// still queued, in order, compacted in place into queue's storage — one O(n)
// sweep however many jobs start. Eligible jobs start from the front while
// they fit; the first that does not fit, or that Start asks to retry, is the
// head, and holds a reservation at the earliest time the running set frees
// its nodes. Jobs behind the head then start if they fit the free nodes and
// either end by that time or fit the nodes the head will leave over.
// starved reports a head that even the end of every running job would not
// satisfy: it holds an unreachable reservation and backfill may use
// whatever is free. On an error from Start the unvisited jobs stay queued.
//
//caws:noalloc
func (c *Core[J]) Pass(queue []J, now float64) (rest []J, starved bool, err error) {
	free := c.Free()
	w, i, need := 0, 0, 0
	var out Outcome
	for ; i < len(queue); i++ {
		nodes, _, eligible := c.Job(queue[i])
		if !eligible {
			queue[w] = queue[i]
			w++
			continue
		}
		need = nodes
		if nodes > free {
			break
		}
		out, err = c.Start(queue[i], now)
		free = c.Free()
		if err != nil || out == Retry {
			break
		}
	}
	if err != nil || i == len(queue) || !c.Backfill {
		return queue[:w+copy(queue[w:], queue[i:])], false, err
	}
	queue[w] = queue[i]
	w, i = w+1, i+1
	shadow, extra, ok := c.Running.Reservation(now, free, need)
	if !ok {
		starved, shadow, extra = true, math.Inf(1), free
	}
	for ; i < len(queue); i++ {
		nodes, estimate, eligible := c.Job(queue[i])
		outlives := now+estimate > shadow
		if eligible && nodes <= free && (!outlives || nodes <= extra) {
			if out, err = c.Start(queue[i], now); err != nil {
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
		queue[w] = queue[i]
		w++
	}
	return queue[:w+copy(queue[w:], queue[i:])], starved, err
}
