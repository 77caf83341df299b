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
	shadow, extra, ok := r.Reservation(10, 5, 4)
	if !ok || shadow != 10 || extra != 1 {
		t.Fatalf("got shadow=%v extra=%d ok=%v, want 10, 1, true", shadow, extra, ok)
	}
}

func TestReservationWaitsForReleases(t *testing.T) {
	// 8 nodes: 3 running (ends 100), 2 running (ends 50), 3 free. A 6-node
	// head does not fit after the 2-node release (3 + 2 = 5 < 6), so it must
	// also wait for the 3-node job: shadow 100, extra 8-6 = 2.
	r := running(Entry{End: 100, Key: 0, Nodes: 3}, Entry{End: 50, Key: 1, Nodes: 2})
	shadow, extra, ok := r.Reservation(10, 3, 6)
	if !ok || shadow != 100 || extra != 2 {
		t.Fatalf("got shadow=%v extra=%d ok=%v, want 100, 2, true", shadow, extra, ok)
	}
	// A 5-node head only needs the first release.
	shadow, extra, ok = r.Reservation(10, 3, 5)
	if !ok || shadow != 50 || extra != 0 {
		t.Fatalf("got shadow=%v extra=%d ok=%v, want 50, 0, true", shadow, extra, ok)
	}
}

// Equal planned ends tie-break by key, and the accumulation stops at the
// first job whose release satisfies the head.
func TestReservationTiedEnds(t *testing.T) {
	r := running(Entry{End: 70, Key: 1, Nodes: 4}, Entry{End: 70, Key: 0, Nodes: 2})
	// Free = 2. Need 4: job 0 releases 2 (total 4) at 70 → shadow 70,
	// extra 0 — job 1's simultaneous release must NOT inflate extra.
	shadow, extra, ok := r.Reservation(10, 2, 4)
	if !ok || shadow != 70 || extra != 0 {
		t.Fatalf("got shadow=%v extra=%d ok=%v, want 70, 0, true", shadow, extra, ok)
	}
	// Need 6: both tied releases are required → extra 8-6 = 2.
	shadow, extra, ok = r.Reservation(10, 2, 6)
	if !ok || shadow != 70 || extra != 2 {
		t.Fatalf("got shadow=%v extra=%d ok=%v, want 70, 2, true", shadow, extra, ok)
	}
}

// A request larger than free + all planned releases can never be satisfied.
func TestReservationCanNeverRun(t *testing.T) {
	r := running(Entry{End: 50, Key: 0, Nodes: 2})
	if _, _, ok := r.Reservation(10, 6, 9); ok {
		t.Fatal("impossible reservation reported satisfiable")
	}
}

// tjob is a queued job of the test machine, with the outcome its start will
// report decided in advance.
type tjob struct {
	id       int64
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
		Job:      func(j *tjob) (int, float64, bool) { return j.nodes, j.estimate, j.eligible },
		Backfill: backfill,
	}
	c.Start = func(j *tjob, now float64) (Outcome, error) { return m.start(j, now, c.Running.Add) }
	for _, e := range m.running {
		c.Running.Add(e)
	}
	return c
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

// randomCase draws a machine with a running set (tied ends included), down
// nodes (so a head can be unsatisfiable) and a queue mixing ineligible
// jobs, every outcome and the occasional failing start.
func randomCase(rng *rand.Rand) (*machine, []*tjob) {
	total := 8 + rng.Intn(57)
	m := &machine{free: total - rng.Intn(total/4+1), running: map[int64]Entry{}}
	for id := int64(1000); m.free > 0 && rng.Intn(8) > 0; id++ {
		e := Entry{End: float64(10 * (1 + rng.Intn(6))), Key: id, Nodes: 1 + rng.Intn(m.free)}
		m.running[id] = e
		m.free -= e.Nodes
	}
	queue := make([]*tjob, rng.Intn(30))
	for i := range queue {
		j := &tjob{
			id:       int64(i + 1),
			nodes:    1 + rng.Intn(total),
			estimate: float64(5 * (1 + rng.Intn(14))),
			eligible: rng.Intn(5) > 0,
		}
		if rng.Intn(2) == 0 {
			j.nodes = 1 + rng.Intn(4) // enough small jobs for backfill to happen
		}
		j.runtime = j.estimate * (0.5 + rng.Float64())
		switch draw := rng.Intn(100); {
		case draw < 7:
			j.outcome = Retry
		case draw < 13:
			j.outcome = Dropped
		case draw < 15:
			j.fail = true
		}
		queue[i] = j
	}
	return m, queue
}

func (m *machine) clone() *machine {
	c := &machine{free: m.free, running: make(map[int64]Entry, len(m.running))}
	for k, e := range m.running {
		c.running[k] = e
	}
	return c
}

func ids(queue []*tjob) []int64 {
	out := make([]int64, len(queue))
	for i, j := range queue {
		out[i] = j.id
	}
	return out
}

// TestPassMatchesSplicePerStartReference is the property the extraction
// rests on: over random queues and running sets the single-sweep compaction
// pass makes the same start calls in the same order and leaves the same
// queue, running set, free count and starved verdict as the naive pass.
func TestPassMatchesSplicePerStartReference(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 4000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref, queue := randomCase(rng)
		opt := ref.clone()
		backfill := rng.Intn(8) > 0
		now := float64(rng.Intn(20))

		wantRest, wantStarved, wantErr := ref.refPass(slices.Clone(queue), now, backfill)
		c := opt.core(backfill)
		rest, starved, err := c.Pass(slices.Clone(queue), now)

		if !slices.Equal(opt.log, ref.log) {
			t.Fatalf("seed %d: start calls %v, reference %v", seed, opt.log, ref.log)
		}
		if !slices.Equal(ids(rest), ids(wantRest)) {
			t.Fatalf("seed %d: queue %v, reference %v", seed, ids(rest), ids(wantRest))
		}
		if starved != wantStarved || err != wantErr || opt.free != ref.free {
			t.Fatalf("seed %d: starved=%v err=%v free=%d, reference %v, %v, %d",
				seed, starved, err, opt.free, wantStarved, wantErr, ref.free)
		}
		want := make([]Entry, 0, len(ref.running))
		for _, e := range ref.running {
			want = append(want, e)
		}
		sort.Slice(want, func(a, b int) bool { return less(want[a], want[b]) })
		if !slices.Equal(c.Running, want) {
			t.Fatalf("seed %d: running set %v, reference %v", seed, c.Running, want)
		}
		for _, l := range ref.log {
			seen[l[len(l)-1:]]++
		}
		if starved {
			seen["starved"]++
		}
		if len(rest) < len(queue) && len(rest) > 0 && !rest[0].eligible {
			seen["passed-ineligible"]++
		}
	}
	// The generator must actually reach every branch it claims to cover.
	for _, k := range []string{"0", "1", "2", "r", "starved", "passed-ineligible"} {
		if seen[k] < 20 {
			t.Errorf("only %d cases exercised %q", seen[k], k)
		}
	}
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
	queue := []*tjob{job(2, 4, 100), job(3, 5, 50), job(4, 2, 300), job(5, 2, 300), job(6, 1, 300)}
	rest, starved, err := m.core(true).Pass(queue, 10)
	if err != nil || starved {
		t.Fatalf("starved=%v err=%v", starved, err)
	}
	if got := ids(rest); !slices.Equal(got, []int64{3, 5}) {
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
	queue := []*tjob{
		{id: 10, nodes: 1, estimate: 5},                   // ineligible: passed over
		{id: 11, nodes: 7, estimate: 10, eligible: true},  // head: shadow 90, extra 1
		{id: 12, nodes: 3, estimate: 10, eligible: true},  // exceeds free
		{id: 13, nodes: 2, estimate: 500, eligible: true}, // outlives shadow, exceeds extra
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, ok := c.Running.Reservation(10, m.free, 7); !ok {
			t.Fatal("reservation unsatisfiable")
		}
	}); n != 0 {
		t.Errorf("Reservation allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		rest, _, err := c.Pass(queue, 10)
		if err != nil || len(rest) != len(queue) {
			t.Fatalf("blocked pass left %d of %d jobs (err %v)", len(rest), len(queue), err)
		}
	}); n != 0 {
		t.Errorf("a pass in which nothing starts allocates %v times", n)
	}
	if len(m.log) != 0 {
		t.Fatalf("blocked pass started %v", m.log)
	}
}
