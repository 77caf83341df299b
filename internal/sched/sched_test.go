package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// running builds a running set from entries given in any order.
func running(entries ...Entry) *Running {
	var r Running
	for _, e := range entries {
		r.Add(e)
	}
	return &r
}

func TestRunningKeepsEndKeyOrder(t *testing.T) {
	r := running(
		Entry{End: 70, Key: 4, Nodes: 1}, Entry{End: 50, Key: 9, Nodes: 2},
		Entry{End: 70, Key: 1, Nodes: 3}, Entry{End: 10, Key: 7, Nodes: 4},
	)
	want := []int64{7, 9, 1, 4}
	for i, e := range *r {
		if e.Key != want[i] {
			t.Fatalf("entry %d has key %d, want order %v", i, e.Key, want)
		}
	}
	if e, ok := r.Remove(1); !ok || e.Nodes != 3 || e.End != 70 {
		t.Fatalf("Remove(1) = %+v, %v", e, ok)
	}
	if _, ok := r.Remove(1); ok {
		t.Fatal("Remove(1) succeeded twice")
	}
	r.Remove(7)
	if len(*r) != 2 || (*r)[0].Key != 9 {
		t.Fatalf("after removals the set is %v, want key 9 first of 2", *r)
	}
}

// The reservation cases below ran against sim.engine.reservation before the
// core was extracted; the machine is the 8-node PaperExample, so free is 8
// minus the running jobs' nodes.

func TestReservationImmediateFit(t *testing.T) {
	r := running(Entry{End: 50, Key: 0, Nodes: 3})
	shadow, extra := r.Reservation(10, 5, 4)
	if shadow != 10 || extra != 1 {
		t.Fatalf("got shadow=%v extra=%d, want 10, 1", shadow, extra)
	}
}

func TestReservationWaitsForReleases(t *testing.T) {
	// 8 nodes: 3 running (ends 100), 2 running (ends 50), 3 free. A 6-node
	// head does not fit after the 2-node release (3 + 2 = 5 < 6), so it must
	// also wait for the 3-node job: shadow 100, extra 8-6 = 2.
	r := running(Entry{End: 100, Key: 0, Nodes: 3}, Entry{End: 50, Key: 1, Nodes: 2})
	shadow, extra := r.Reservation(10, 3, 6)
	if shadow != 100 || extra != 2 {
		t.Fatalf("got shadow=%v extra=%d, want 100, 2", shadow, extra)
	}
	// A 5-node head only needs the first release.
	shadow, extra = r.Reservation(10, 3, 5)
	if shadow != 50 || extra != 0 {
		t.Fatalf("got shadow=%v extra=%d, want 50, 0", shadow, extra)
	}
}

// Equal planned ends tie-break by key, and the accumulation stops at the
// first job whose release satisfies the head.
func TestReservationTiedEnds(t *testing.T) {
	r := running(Entry{End: 70, Key: 1, Nodes: 4}, Entry{End: 70, Key: 0, Nodes: 2})
	// Free = 2. Need 4: job 0 releases 2 (total 4) at 70 → shadow 70,
	// extra 0 — job 1's simultaneous release must NOT inflate extra.
	shadow, extra := r.Reservation(10, 2, 4)
	if shadow != 70 || extra != 0 {
		t.Fatalf("got shadow=%v extra=%d, want 70, 0", shadow, extra)
	}
	// Need 6: both tied releases are required → extra 8-6 = 2.
	shadow, extra = r.Reservation(10, 2, 6)
	if shadow != 70 || extra != 2 {
		t.Fatalf("got shadow=%v extra=%d, want 70, 2", shadow, extra)
	}
}

// A request larger than free + all planned releases can never be satisfied:
// it holds an unreachable reservation, and every free node is extra.
func TestReservationCanNeverRun(t *testing.T) {
	r := running(Entry{End: 50, Key: 0, Nodes: 2})
	if shadow, extra := r.Reservation(10, 6, 9); !math.IsInf(shadow, 1) || extra != 6 {
		t.Fatalf("got shadow=%v extra=%d, want +Inf, 6", shadow, extra)
	}
	if shadow, extra := (Running{}).Reservation(10, 3, 4); !math.IsInf(shadow, 1) || extra != 3 {
		t.Fatalf("empty running set: got shadow=%v extra=%d, want +Inf, 3", shadow, extra)
	}
}

// tjob is a queued job of the test machine, with the outcome its start will
// report decided in advance.
type tjob struct {
	id       int64
	key      int // byKey's order; fixed while the job is queued
	nodes    int
	estimate float64 // what the scheduler plans with
	runtime  float64 // planned end is now + runtime
	eligible bool
	outcome  Outcome
	fail     bool // start returns an error
}

var errStart = errors.New("start failed")

// machine is a test front end: free nodes, a log of the jobs it was asked to
// start, and the running set as the pre-extraction front ends kept it — a
// map, collected and sorted per reservation.
type machine struct {
	free    int
	running map[int64]Entry
	log     []string
}

func (m *machine) start(j *tjob, now float64, add func(Entry)) (Outcome, error) {
	if j.fail {
		m.log = append(m.log, fmt.Sprintf("%d:error", j.id))
		return 0, errStart
	}
	m.log = append(m.log, fmt.Sprintf("%d:%d", j.id, j.outcome))
	if j.outcome == Started {
		m.free -= j.nodes
		add(Entry{End: now + j.runtime, Key: j.id, Nodes: j.nodes})
	}
	return j.outcome, nil
}

// core binds a Core to the machine, seeded with the machine's running jobs.
func (m *machine) core(backfill bool) *Core[*tjob] {
	c := &Core[*tjob]{
		Free:     func() int { return m.free },
		Job:      func(j *tjob) (float64, bool) { return j.estimate, j.eligible },
		Backfill: backfill,
	}
	c.Start = func(j *tjob, now float64) (Outcome, error) { return m.start(j, now, c.Running.Add) }
	for _, e := range m.running {
		c.Running.Add(e)
	}
	return c
}

// byID is the daemon's queue order: job ID.
func byID(a, b *tjob) bool { return a.id < b.id }

// byKey is an SJF-like queue order: a key fixed when the job is made, ties
// broken by ID.
func byKey(a, b *tjob) bool { return a.key < b.key || (a.key == b.key && a.id < b.id) }

// queueOf adds jobs to a fresh queue in ID order.
func queueOf(jobs ...*tjob) *Queue[*tjob] {
	q := NewQueue(byID)
	for _, j := range jobs {
		q.Add(j, j.nodes)
	}
	return &q
}

// refReservation is the reservation both front ends used to carry: collect
// the running set, sort it by (end, key), accumulate releases.
func (m *machine) refReservation(now float64, need int) (shadow float64, extra int, ok bool) {
	free := m.free
	if need <= free {
		return now, free - need, true
	}
	ends := make([]Entry, 0, len(m.running))
	for _, e := range m.running {
		ends = append(ends, e)
	}
	sort.Slice(ends, func(a, b int) bool {
		if ends[a].End != ends[b].End {
			return ends[a].End < ends[b].End
		}
		return ends[a].Key < ends[b].Key
	})
	for _, e := range ends {
		free += e.Nodes
		if free >= need {
			return e.End, free - need, true
		}
	}
	return 0, 0, false
}

// refPass is the reference the compaction pass is checked against: the
// pre-extraction daemon pass, splicing each job that leaves the queue out
// of it one at a time.
func (m *machine) refPass(queue []*tjob, now float64, backfill bool) (rest []*tjob, starved bool, err error) {
	add := func(e Entry) { m.running[e.Key] = e }
	head := -1
	for i := 0; i < len(queue); {
		j := queue[i]
		if !j.eligible {
			i++
			continue
		}
		if j.nodes > m.free {
			head = i
			break
		}
		out, err := m.start(j, now, add)
		if err != nil {
			return queue, false, err
		}
		if out == Retry {
			head = i
			break
		}
		queue = append(queue[:i], queue[i+1:]...)
	}
	if head < 0 || !backfill {
		return queue, false, nil
	}
	shadow, extra, ok := m.refReservation(now, queue[head].nodes)
	if !ok {
		starved, shadow, extra = true, math.Inf(1), m.free
	}
	for i := head + 1; i < len(queue); {
		j := queue[i]
		if !j.eligible || j.nodes > m.free {
			i++
			continue
		}
		finishesBeforeShadow := now+j.estimate <= shadow
		if !finishesBeforeShadow && j.nodes > extra {
			i++
			continue
		}
		out, err := m.start(j, now, add)
		if err != nil {
			return queue, starved, err
		}
		if out == Retry {
			i++
			continue
		}
		if out == Started && !finishesBeforeShadow {
			extra -= j.nodes
		}
		queue = append(queue[:i], queue[i+1:]...)
	}
	return queue, starved, nil
}

// source draws the choices of a case: a seeded rng in the property test,
// the fuzzer's bytes in FuzzQueueOps.
type source interface{ Intn(n int) int }

// byteSource reads one choice per byte and answers 0 once they run out.
type byteSource []byte

func (s *byteSource) Intn(n int) int {
	if len(*s) == 0 {
		return 0
	}
	v := int((*s)[0])
	*s = (*s)[1:]
	return v % n
}

// randomJob draws a queued job for a machine of total nodes: half of them
// small enough for backfill to happen, some ineligible, every outcome and
// the occasional failing start.
func randomJob(src source, id int64, total int) *tjob {
	j := &tjob{
		id:       id,
		key:      src.Intn(6),
		nodes:    1 + src.Intn(total),
		estimate: float64(5 * (1 + src.Intn(14))),
	}
	if src.Intn(2) == 0 {
		j.nodes = 1 + src.Intn(4)
	}
	j.runtime = j.estimate * (0.5 + float64(src.Intn(100))/100)
	j.redraw(src)
	return j
}

// redraw decides again whether the job is eligible and what its next start
// reports, as a dependency finishing or a node coming back would.
func (j *tjob) redraw(src source) {
	j.eligible = src.Intn(5) > 0
	j.outcome, j.fail = Started, false
	switch draw := src.Intn(100); {
	case draw < 7:
		j.outcome = Retry
	case draw < 13:
		j.outcome = Dropped
	case draw < 15:
		j.fail = true
	}
}

// world is one long-lived queue on the core under test beside the naive
// model of it: a plain slice that refPass splices, on a machine of its own.
// gone holds the jobs cancelled out of the queue, which may come back as a
// requeued job does.
type world struct {
	src      source
	total    int
	ref, opt *machine
	c        *Core[*tjob]
	q        Queue[*tjob]
	less     func(a, b *tjob) bool
	keyed    bool // less is byKey
	model    []*tjob
	gone     []*tjob
	nextID   int64
	now      float64
	// inserts counts the jobs Add put ahead of a queued one.
	inserts int
}

// newWorld draws a machine with a running set (tied ends included), down
// nodes (so a head can be unsatisfiable), a queue order and an initial
// queue.
func newWorld(src source) *world {
	total := 8 + src.Intn(57)
	w := &world{src: src, total: total, nextID: 1, less: byID}
	if src.Intn(2) == 0 {
		w.less, w.keyed = byKey, true
	}
	w.q = NewQueue(w.less)
	w.ref = &machine{free: total - src.Intn(total/4+1), running: map[int64]Entry{}}
	for key := int64(-1); w.ref.free > 0 && src.Intn(8) > 0; key-- {
		e := Entry{End: float64(10 * (1 + src.Intn(6))), Key: key, Nodes: 1 + src.Intn(w.ref.free)}
		w.ref.running[key] = e
		w.ref.free -= e.Nodes
	}
	w.opt = &machine{free: w.ref.free} // its running set is the core's
	w.c = w.opt.core(src.Intn(8) > 0)
	for _, e := range w.ref.running {
		w.c.Running.Add(e)
	}
	for n := src.Intn(30); n > 0; n-- {
		w.push()
	}
	return w
}

func (w *world) push() {
	w.nextID++
	w.add(randomJob(w.src, w.nextID-1, w.total))
}

// requeue queues a cancelled job again, as the daemon queues a job killed
// by a node failure: its ID is older than the newest queued ones, so under
// byID it goes ahead of them.
func (w *world) requeue() {
	if len(w.gone) == 0 {
		w.push()
		return
	}
	k := w.src.Intn(len(w.gone))
	j := w.gone[k]
	w.gone = append(w.gone[:k], w.gone[k+1:]...)
	w.add(j)
}

// add queues j on both sides; the model puts it ahead of the first queued
// job it sorts before, or last.
func (w *world) add(j *tjob) {
	w.q.Add(j, j.nodes)
	pos := slices.IndexFunc(w.model, func(q *tjob) bool { return w.less(j, q) })
	if pos < 0 {
		pos = len(w.model)
	} else {
		w.inserts++
	}
	w.model = slices.Insert(w.model, pos, j)
}

// remove cancels a queued job, or tries to cancel one that is not queued.
func (w *world) remove(t testing.TB) {
	if len(w.model) == 0 || w.src.Intn(8) == 0 {
		if w.q.Remove(&tjob{}) {
			t.Fatal("Remove of a job that was never queued reported true")
		}
		return
	}
	pos := w.src.Intn(len(w.model))
	if !w.q.Remove(w.model[pos]) {
		t.Fatalf("Remove of queued job %d reported false", w.model[pos].id)
	}
	w.gone = append(w.gone, w.model[pos])
	w.model = append(w.model[:pos], w.model[pos+1:]...)
}

// mutate applies one queue operation to both sides.
func (w *world) mutate(t testing.TB) {
	switch w.src.Intn(4) {
	case 0:
		w.push()
	case 1:
		w.requeue()
	case 2:
		w.remove(t)
	case 3:
		if len(w.model) > 0 {
			w.model[w.src.Intn(len(w.model))].redraw(w.src)
		}
	}
	w.check(t, "after a queue op")
}

// check holds the queue to its model: the same jobs in the same order, each
// with the node count it was queued with beside it, and no handle left in
// the storage past the end.
func (w *world) check(t testing.TB, when string) {
	t.Helper()
	if !slices.Equal(ids(w.q.Jobs()), ids(w.model)) || w.q.Len() != len(w.model) {
		t.Fatalf("%s: queue %v, model %v", when, ids(w.q.Jobs()), ids(w.model))
	}
	if len(w.q.need) != len(w.q.jobs) {
		t.Fatalf("%s: %d node counts beside %d jobs", when, len(w.q.need), len(w.q.jobs))
	}
	for i, j := range w.q.jobs {
		if int(w.q.need[i]) != j.nodes {
			t.Fatalf("%s: job %d (%d nodes) at %d has node count %d beside it",
				when, j.id, j.nodes, i, w.q.need[i])
		}
	}
	for i, j := range w.q.jobs[len(w.q.jobs):cap(w.q.jobs)] {
		if j != nil {
			t.Fatalf("%s: stale handle of job %d at %d past the end", when, j.id, len(w.q.jobs)+i)
		}
	}
}

// pass moves time on, completes what has ended on both machines, runs the
// pass under test and the naive one, and compares everything they did. seen
// counts the branches reached.
func (w *world) pass(t testing.TB, seen map[string]int) {
	w.now += float64(w.src.Intn(12))
	for key, e := range w.ref.running {
		if e.End <= w.now {
			delete(w.ref.running, key)
			w.ref.free += e.Nodes
			w.c.Running.Remove(key)
			w.opt.free += e.Nodes
		}
	}
	before := slices.Clone(w.model)
	w.ref.log, w.opt.log = w.ref.log[:0], w.opt.log[:0]

	rest, starved, wantErr := w.ref.refPass(w.model, w.now, w.c.Backfill)
	w.model = rest
	err := w.c.Pass(&w.q, w.now)

	if !slices.Equal(w.opt.log, w.ref.log) {
		t.Fatalf("start calls %v, reference %v", w.opt.log, w.ref.log)
	}
	w.check(t, "after a pass")
	if err != wantErr || w.opt.free != w.ref.free {
		t.Fatalf("err=%v free=%d, reference %v, %d", err, w.opt.free, wantErr, w.ref.free)
	}
	want := make([]Entry, 0, len(w.ref.running))
	for _, e := range w.ref.running {
		want = append(want, e)
	}
	sort.Slice(want, func(a, b int) bool { return less(want[a], want[b]) })
	if !slices.Equal(w.c.Running, want) {
		t.Fatalf("running set %v, reference %v", w.c.Running, want)
	}

	for _, l := range w.ref.log {
		seen[l[len(l)-1:]]++
	}
	// A head the reference found unsatisfiable: the pass under test held it
	// to an unreachable reservation, and the start calls above agree.
	if starved {
		seen["starved"]++
	}
	for i, j := range rest {
		if !j.eligible && before[i] != j {
			seen["moved-ineligible"]++
			break
		}
	}
	// What could not start now may be able to next time.
	for _, j := range rest {
		if (j.fail || j.outcome == Retry) && w.src.Intn(2) == 0 {
			j.redraw(w.src)
		}
	}
}

func ids(queue []*tjob) []int64 {
	out := make([]int64, len(queue))
	for i, j := range queue {
		out[i] = j.id
	}
	return out
}

// TestPassMatchesSplicePerStartReference is the property the extraction
// rests on: the single-sweep compaction pass makes the same start calls in
// the same order and leaves the same queue, running set and free count as
// the naive pass, also behind a head the naive pass finds no release can
// satisfy ("starved"). The queue is the long-lived object the
// front ends hold, not a fresh slice per case: each of 600 random machines
// keeps one Queue, in ID order or in an SJF-like order, through 60 passes,
// with jobs added, cancelled, requeued and changing eligibility between
// them and running jobs ending as time moves.
func TestPassMatchesSplicePerStartReference(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 600; seed++ {
		w := newWorld(rand.New(rand.NewSource(seed)))
		w.check(t, "at the start")
		for round := 0; round < 60 && !t.Failed(); round++ {
			for n := w.src.Intn(4); n > 0; n-- {
				w.mutate(t)
			}
			w.pass(t, seen)
		}
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
		order := "byID"
		if w.keyed {
			order = "byKey"
		}
		seen[order+" inserts"] += w.inserts
	}
	// The generator must actually reach every branch it claims to cover.
	for _, k := range []string{"0", "1", "2", "r", "starved", "moved-ineligible", "byID inserts", "byKey inserts"} {
		if seen[k] < 200 {
			t.Errorf("only %d passes exercised %q", seen[k], k)
		}
	}
}

// FuzzQueueOps lets the fuzzer choose the machine, the queue order, the
// jobs and the order of Add (new and requeued jobs), Remove and Pass on one
// Queue, held to the same model and checks as the property test.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x20\x03\x07\x01\x02\x05\x09\x11\x04\x00\x01\x02\x03\x04\x05\x06\x07"))
	seed := make([]byte, 400)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		src := byteSource(data)
		w := newWorld(&src)
		seen := map[string]int{}
		for len(src) > 0 {
			if src.Intn(3) == 0 {
				w.pass(t, seen)
			} else {
				w.mutate(t)
			}
		}
		w.pass(t, seen)
	})
}

// One pass computes the extra pool once and backfills drain it: the sim's
// TestBackfillExtraAccounting scenario at the level of the pass. 8-node
// machine, 4 free after job 2 head-starts; job 3 (5 nodes) is the head with
// shadow 110 and 3 extra; job 4 (2 nodes, outlives the shadow) drains extra
// to 1, job 5 (2 nodes) no longer fits it despite 2 free nodes, job 6
// (1 node) takes the last extra node.
func TestPassDrainsExtraPool(t *testing.T) {
	m := &machine{free: 8, running: map[int64]Entry{}}
	job := func(id int64, nodes int, runtime float64) *tjob {
		return &tjob{id: id, nodes: nodes, estimate: runtime, runtime: runtime, eligible: true}
	}
	q := queueOf(job(2, 4, 100), job(3, 5, 50), job(4, 2, 300), job(5, 2, 300), job(6, 1, 300))
	if err := m.core(true).Pass(q, 10); err != nil {
		t.Fatal(err)
	}
	if got := ids(q.Jobs()); !slices.Equal(got, []int64{3, 5}) {
		t.Fatalf("left queued %v, want [3 5]", got)
	}
	if want := []string{"2:0", "4:0", "6:0"}; !slices.Equal(m.log, want) {
		t.Fatalf("started %v, want %v", m.log, want)
	}
}

// The pass and the reservation are allocation-free when nothing starts:
// the callbacks are bound once, so a blocked pass builds no closures, and
// the ordered running set needs no per-pass collect and sort.
func TestNoAllocBlockedPass(t *testing.T) {
	m := &machine{free: 2, running: map[int64]Entry{
		1: {End: 50, Key: 1, Nodes: 3}, 2: {End: 90, Key: 2, Nodes: 3},
	}}
	c := m.core(true)
	q := queueOf(
		&tjob{id: 10, nodes: 1, estimate: 5},                   // ineligible: passed over
		&tjob{id: 11, nodes: 7, estimate: 10, eligible: true},  // head: shadow 90, extra 1
		&tjob{id: 12, nodes: 3, estimate: 10, eligible: true},  // exceeds free
		&tjob{id: 13, nodes: 2, estimate: 500, eligible: true}, // outlives shadow, exceeds extra
	)
	if n := testing.AllocsPerRun(100, func() {
		if shadow, _ := c.Running.Reservation(10, m.free, 7); shadow != 90 {
			t.Fatalf("shadow %v, want 90", shadow)
		}
	}); n != 0 {
		t.Errorf("Reservation allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Pass(q, 10); err != nil || q.Len() != 4 {
			t.Fatalf("blocked pass left %d of 4 jobs (err %v)", q.Len(), err)
		}
	}); n != 0 {
		t.Errorf("a pass in which nothing starts allocates %v times", n)
	}
	if len(m.log) != 0 {
		t.Fatalf("blocked pass started %v", m.log)
	}
}
