package sched

import (
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// BenchmarkPassBacklog is one pass over the queue daemon_backlog ends with:
// 14,000 Theta-shaped requests behind a blocked head, 40 nodes free, handles
// that are pointers to records the size of the daemon's, laid out in memory
// in another order than the queue's as a long-lived heap's are. Every queued
// job outlives the head's reservation, so the extra pool decides: with none
// nothing starts and the pass is a read of the node counts plus a Job call
// for what fits; with one extra node the first one-node job starts,
// everything behind it moves down a slot, and the job is queued again, last,
// for the next pass.
func BenchmarkPassBacklog(b *testing.B) {
	type rec struct {
		job  workload.Job
		seq  int        // queue order, as a job ID
		rest [19]uint64 // name, state, times, placement
	}
	trace := workload.Theta.Synthesize(14000, 1)
	recs := make([]*rec, len(trace.Jobs))
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(recs)) {
		recs[i] = &rec{job: trace.Jobs[i], seq: i + 1}
	}
	for _, bc := range []struct {
		name  string
		extra int
	}{{"blocked", 0}, {"one-starts", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			const free, held = 40, 1000
			machine := free
			c := &Core[*rec]{
				Free:     func() int { return machine },
				Job:      func(r *rec) (float64, bool) { return r.job.Runtime, true },
				Backfill: true,
			}
			var started *rec
			c.Start = func(r *rec, now float64) (Outcome, error) {
				machine -= r.job.Nodes
				started = r
				return Started, nil
			}
			c.Running.Add(Entry{End: 1, Key: -1, Nodes: held})
			q := NewQueue(func(a, b *rec) bool { return a.seq < b.seq })
			q.Add(&rec{}, free+held-bc.extra)
			fit, seq := 0, len(recs)
			for _, r := range recs {
				q.Add(r, r.job.Nodes)
				if r.job.Nodes <= free {
					fit++
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Pass(&q, 0); err != nil {
					b.Fatal(err)
				}
				if started != nil {
					machine += started.job.Nodes
					seq++
					started.seq = seq
					q.Add(started, started.job.Nodes)
					started = nil
				}
			}
			b.StopTimer()
			if q.Len() != len(trace.Jobs)+1 {
				b.Fatalf("%d jobs queued after the last pass, want %d", q.Len(), len(trace.Jobs)+1)
			}
			b.ReportMetric(float64(fit)/float64(len(trace.Jobs)), "fit/job")
		})
	}
}
