package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/workload"
)

const validateEps = 1e-6

// sameTime reports exact equality of two simulator time values (instants
// or durations). Event times are copied between records, never
// recomputed, so identity — not epsilon closeness — is the correct test:
// two events belong to the same scheduling instant only when their
// float64 bits match, exactly as the engine's event queue sees them.
func sameTime(a, b float64) bool { return a == b }

// eqExact reports exact float64 equality for pass-through bookkeeping:
// values the engine assigns verbatim (a degenerate job's CostRatio is the
// literal constant 1, not a computed quotient), where any drift at all is
// the bug being checked for.
func eqExact(a, b float64) bool { return a == b }

// ValidateResult cross-checks a continuous run against its input trace:
// every job appears exactly once with consistent times, dependants start
// after their dependencies, the Eq. 7 runtime model is internally
// consistent (Exec, CostRatio, CommCost and RefCost agree with the job's
// mix), and a sweep over all start/end events never oversubscribes the
// machine. It is an independent auditor of the engine (used by integration
// tests and the verify harness), not a re-run.
//
// ValidateResult checks only properties that hold under every Config; use
// ValidateResultConfig to additionally audit queue ordering and EASY
// backfill legality, which depend on the policy and backfill settings.
func ValidateResult(res *Result, trace workload.Trace) error {
	if len(res.Jobs) != len(trace.Jobs) {
		return fmt.Errorf("sim: %d results for %d jobs", len(res.Jobs), len(trace.Jobs))
	}
	const eps = validateEps
	byID := make(map[int64]int, len(res.Jobs))
	for i, r := range res.Jobs {
		j := trace.Jobs[i]
		if r.ID != int64(j.ID) {
			return fmt.Errorf("sim: result %d has ID %d, trace has %d", i, r.ID, j.ID)
		}
		byID[r.ID] = i
		if r.Nodes != j.Nodes {
			return fmt.Errorf("sim: job %d ran on %d nodes, requested %d", r.ID, r.Nodes, j.Nodes)
		}
		if r.Start+eps < j.Submit {
			return fmt.Errorf("sim: job %d started %v before submit %v", r.ID, r.Start, j.Submit)
		}
		if math.Abs(r.End-r.Start-r.Exec) > eps {
			return fmt.Errorf("sim: job %d end %v != start %v + exec %v", r.ID, r.End, r.Start, r.Exec)
		}
		if r.Exec <= 0 {
			return fmt.Errorf("sim: job %d has exec %v", r.ID, r.Exec)
		}
		if !sameTime(r.BaseRun, j.Runtime) {
			return fmt.Errorf("sim: job %d base runtime %v != trace %v", r.ID, r.BaseRun, j.Runtime)
		}
		if !r.Comm && math.Abs(r.Exec-j.Runtime) > eps {
			return fmt.Errorf("sim: compute job %d exec %v != runtime %v", r.ID, r.Exec, j.Runtime)
		}
		if err := validateRuntimeModel(r, j); err != nil {
			return err
		}
		if err := validateFaultBookkeeping(r); err != nil {
			return err
		}
	}
	// Dependencies: start after the dependency's end plus think time.
	for i, j := range trace.Jobs {
		if j.DependsOn == 0 {
			continue
		}
		di, ok := byID[int64(j.DependsOn)]
		if !ok {
			return fmt.Errorf("sim: job %d depends on unknown job %d", j.ID, j.DependsOn)
		}
		if res.Jobs[i].Start+eps < res.Jobs[di].End+j.ThinkTime {
			return fmt.Errorf("sim: job %d started %v before dependency %d ended %v (+%v think)",
				j.ID, res.Jobs[i].Start, j.DependsOn, res.Jobs[di].End, j.ThinkTime)
		}
	}
	// Capacity sweep: concurrent node usage never exceeds the machine.
	type ev struct {
		t     float64
		delta int
	}
	events := make([]ev, 0, 2*len(res.Jobs))
	for _, r := range res.Jobs {
		events = append(events, ev{r.Start, r.Nodes}, ev{r.End, -r.Nodes})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return events[a].delta < events[b].delta // releases before starts at ties
	})
	inUse := 0
	for _, e := range events {
		inUse += e.delta
		if inUse > trace.MachineNodes {
			return fmt.Errorf("sim: %d nodes in use at t=%v, machine has %d",
				inUse, e.t, trace.MachineNodes)
		}
	}
	if inUse != 0 {
		return fmt.Errorf("sim: %d nodes still in use after all events", inUse)
	}
	return nil
}

// validateRuntimeModel checks one job's Eq. 7 bookkeeping. The engine
// guarantees Exec = Base·(ComputeFrac + CommFrac·CostRatio) clamped to at
// least one second, with CostRatio the communication-weighted mean ratio,
// and for single-collective jobs CostRatio = CommCost/RefCost (or 1 when
// the reference cost is zero). Compute jobs and degenerate comm jobs
// (single node, no collective components) must pass through unchanged.
func validateRuntimeModel(r metrics.JobResult, j workload.Job) error {
	if r.CostRatio <= 0 {
		return fmt.Errorf("sim: job %d has cost ratio %v", r.ID, r.CostRatio)
	}
	if r.CommCost < 0 || r.RefCost < 0 {
		return fmt.Errorf("sim: job %d has negative cost (%v, %v)", r.ID, r.CommCost, r.RefCost)
	}
	degenerate := j.Class != cluster.CommIntensive || len(j.Mix.Comms) == 0 || j.Nodes <= 1
	if degenerate {
		if !eqExact(r.CostRatio, 1) {
			return fmt.Errorf("sim: job %d untouched by the runtime model but ratio %v", r.ID, r.CostRatio)
		}
		if math.Abs(r.Exec-j.Runtime) > validateEps {
			return fmt.Errorf("sim: job %d untouched by the runtime model but exec %v != runtime %v",
				r.ID, r.Exec, j.Runtime)
		}
		return nil
	}
	// CostRatio must equal the primary pattern's cost ratio whenever the mix
	// has exactly one collective component (the weighted mean degenerates).
	if len(j.Mix.Comms) == 1 {
		want := costmodel.RuntimeRatio(r.CommCost, r.RefCost)
		if math.Abs(r.CostRatio-want) > validateEps*math.Max(1, want) {
			return fmt.Errorf("sim: job %d cost ratio %v != CommCost/RefCost = %v/%v = %v",
				r.ID, r.CostRatio, r.CommCost, r.RefCost, want)
		}
	}
	// Eq. 7: Exec = Base·ComputeFrac + Base·Σ_k frac_k·ratio_k, and CostRatio
	// is the frac-weighted mean of the ratios, so Exec must equal
	// Base·(ComputeFrac + CommFrac·CostRatio), clamped to ≥ 1 s.
	want := j.Runtime * (j.Mix.ComputeFrac + j.Mix.CommFrac()*r.CostRatio)
	if want < 1 {
		want = 1
	}
	if math.Abs(r.Exec-want) > validateEps*math.Max(1, want) {
		return fmt.Errorf("sim: job %d exec %v inconsistent with Eq. 7: base %v × (%v + %v×%v) = %v",
			r.ID, r.Exec, j.Runtime, j.Mix.ComputeFrac, j.Mix.CommFrac(), r.CostRatio, want)
	}
	return nil
}

// ValidateResultConfig is ValidateResult plus configuration-aware audits:
// with backfilling disabled no job may start while a policy-earlier
// eligible job waits, and with backfilling enabled every backfilled start
// must have been legal under the EASY rule (the job either fit in the
// nodes spare at the head job's shadow time or its walltime estimate ended
// before the shadow). Queue order is always Policy.less, whatever waited or
// was requeued. Instants whose pass cannot be reconstructed from the result
// alone (simultaneous events, killed attempts, drains) are skipped rather
// than guessed, so the audit never produces false positives on a correct
// engine.
func ValidateResultConfig(res *Result, trace workload.Trace, cfg Config) error {
	if err := ValidateResult(res, trace); err != nil {
		return err
	}
	a := newAuditor(res, trace, cfg)
	if cfg.DisableBackfill {
		return a.checkNoBackfillOrder()
	}
	return a.checkBackfillLegality()
}

// RunContinuousValidated is RunContinuous followed by the full
// configuration-aware audit: the result is returned only if it passes
// ValidateResultConfig. Production entry points (sweeps, experiment
// runners, the CLI) use this so an engine regression surfaces as an error
// instead of silently skewed tables.
func RunContinuousValidated(cfg Config, trace workload.Trace) (*Result, error) {
	res, err := RunContinuous(cfg, trace)
	if err != nil {
		return nil, err
	}
	if err := ValidateResultConfig(res, trace, cfg); err != nil {
		return nil, fmt.Errorf("sim: result failed self-audit: %w", err)
	}
	return res, nil
}

// auditor holds the reconstructed schedule state shared by the
// config-aware checks.
type auditor struct {
	res   *Result
	trace workload.Trace
	cfg   Config
	// elig[i] is the time job i (finally) became an eligible waiting job:
	// max(Submit, dependency End + ThinkTime, last requeue time). From that
	// instant until its recorded Start the job is continuously waiting.
	elig        []float64
	hasRequeues bool
	// maxRequeue is the last job-kill instant in the run: at or before it,
	// killed partial attempts (absent from the result) may occupy nodes, so
	// those instants are not reconstructable.
	maxRequeue float64
}

func newAuditor(res *Result, trace workload.Trace, cfg Config) *auditor {
	a := &auditor{res: res, trace: trace, cfg: cfg, elig: make([]float64, len(trace.Jobs))}
	byID := make(map[int64]int, len(trace.Jobs))
	for i, r := range res.Jobs {
		byID[r.ID] = i
	}
	for i, j := range trace.Jobs {
		a.elig[i] = j.Submit
		if j.DependsOn != 0 {
			if di, ok := byID[int64(j.DependsOn)]; ok {
				if t := res.Jobs[di].End + j.ThinkTime; t > a.elig[i] {
					a.elig[i] = t
				}
			}
		}
		if r := res.Jobs[i]; r.Requeues > 0 {
			a.hasRequeues = true
			if r.RequeuedAt > a.elig[i] {
				a.elig[i] = r.RequeuedAt
			}
			if r.RequeuedAt > a.maxRequeue {
				a.maxRequeue = r.RequeuedAt
			}
		}
	}
	return a
}

// policyBefore reports whether job i is ordered ahead of job k in the
// waiting queue: Policy.less, index order under FIFO, whenever either job
// entered or re-entered the queue.
func (a *auditor) policyBefore(i, k int) bool {
	return a.cfg.Policy.less(a.trace.Jobs, i, k)
}

// checkNoBackfillOrder verifies strict policy order: a job may not start
// while a policy-earlier job is eligible and still waiting.
func (a *auditor) checkNoBackfillOrder() error {
	for k := range a.res.Jobs {
		t := a.res.Jobs[k].Start
		for i := range a.res.Jobs {
			if i == k || a.elig[i] >= t || a.res.Jobs[i].Start <= t {
				continue
			}
			if a.policyBefore(i, k) {
				return fmt.Errorf("sim: backfill disabled but job %d started at %v while policy-earlier job %d (eligible %v) waited",
					a.res.Jobs[k].ID, t, a.res.Jobs[i].ID, a.elig[i])
			}
		}
	}
	return nil
}

// estEnd returns the completion time the scheduler planned with for job i
// started at res.Jobs[i].Start: start plus the larger of the actual
// execution time and the walltime estimate (mirroring engine.start).
func (a *auditor) estEnd(i int) float64 {
	r := a.res.Jobs[i]
	est := a.trace.Jobs[i].EstimatedRuntime()
	if r.Exec > est {
		return r.Start + r.Exec
	}
	return r.Start + est
}

// checkBackfillLegality audits backfilled starts against the EASY rule,
// one scheduling pass (start instant) at a time. An instant t is audited
// only when the engine state is exactly reconstructable from the result:
// at most one triggering event (a completion or an arrival) falls on t, so
// all starts at t belong to a single schedule pass whose running set and
// waiting queue are known. The pass is then replayed: jobs queued ahead of
// the waiting head started from the head loop; every job queued behind it
// is a backfill that must either finish (by its walltime estimate) before
// the head's shadow time or fit the extra node pool, which drains as
// shadow-outliving backfills consume it. Ambiguous instants (event-time
// collisions) are skipped rather than guessed, so a correct engine is never
// falsely flagged.
//
// The instants are visited once, in time order. Jobs are sorted once by
// start, end and eligibility; the waiting set (in index order), the running
// set (by planned end) and the fault view move forward with t instead of
// being rebuilt at each instant, so the audit costs O(n log n) plus the
// summed size of the waiting sets it inspects.
func (a *auditor) checkBackfillLegality() error {
	jobs := a.res.Jobs
	n := len(jobs)
	starts, ends := make([]float64, n), make([]float64, n)
	estEnd := make([]float64, n)
	for i := range jobs {
		starts[i], ends[i], estEnd[i] = jobs[i].Start, jobs[i].End, a.estEnd(i)
	}
	byStart, byEnd, byElig := orderBy(starts), orderBy(ends), orderBy(a.elig)
	byEstEnd := func(x, y int) int { return cmp.Or(cmp.Compare(estEnd[x], estEnd[y]), x-y) }
	var (
		// waiting holds the jobs with elig < t and Start > t, ascending.
		waiting, merged, arrived, pending []int
		// running holds the jobs with Start < t < End by (estEnd, index),
		// and busy their nodes.
		running   []int
		inRunning = make([]bool, n)
		busy      int
		// started is the previous instant's starts until the running set
		// takes them in, then this instant's.
		started          []int
		prefix, backfill []int
		endPos, eligPos  int
	)
	fc := newFaultCursor(a.cfg.Faults)
	for lo := 0; lo < n; {
		t := starts[byStart[lo]]
		// Last instant's starts still running at t join the running set;
		// jobs ended by t leave it.
		for _, s := range started {
			if ends[s] > t {
				pos, _ := slices.BinarySearchFunc(running, s, byEstEnd)
				running = slices.Insert(running, pos, s)
				inRunning[s] = true
				busy += jobs[s].Nodes
			}
		}
		for ; endPos < n && ends[byEnd[endPos]] <= t; endPos++ {
			if i := byEnd[endPos]; inRunning[i] {
				pos, _ := slices.BinarySearchFunc(running, i, byEstEnd)
				running = slices.Delete(running, pos, pos+1)
				inRunning[i] = false
				busy -= jobs[i].Nodes
			}
		}
		// The jobs starting at t leave the waiting set; those that became
		// eligible since the last instant and start after t join it.
		hi := lo + 1
		for hi < n && sameTime(starts[byStart[hi]], t) {
			hi++
		}
		started, lo = byStart[lo:hi], hi
		arrived = arrived[:0]
		for ; eligPos < n && a.elig[byElig[eligPos]] < t; eligPos++ {
			arrived = append(arrived, byElig[eligPos])
		}
		slices.Sort(arrived)
		merged = mergeLive(merged[:0], waiting, arrived, starts, t)
		waiting, merged = merged, waiting

		downAt := 0
		faultTriggers := 0
		if len(a.cfg.Faults) > 0 {
			fv := fc.advance(t)
			// Killed partial attempts are invisible to this reconstruction:
			// until the run's last kill instant the running set (and thus
			// the free count and the shadow time) cannot be recovered from
			// final results alone, so those instants are skipped.
			if a.hasRequeues && t <= a.maxRequeue {
				continue
			}
			// A drained node's capacity effect depends on whether a job
			// occupied it at drain time — node-level placement the result
			// does not record. Skip instants with any drain in effect. A
			// drain on a node past the machine is accepted and skips its
			// span too: a caller hides instants it cannot rebuild that way
			// (TestValidateSkipsDrainPastMachine).
			if fv.drainActive {
				continue
			}
			downAt = fv.failedDown
			faultTriggers = fv.eventsAt
		}
		// Triggering events at t: completions, arrivals (jobs becoming
		// eligible) and fault events. More than one means multiple passes
		// at t with unknowable interleaving — skip. Exactly one pending
		// arrival is fine only when it is the pass trigger, i.e. there is
		// no completion or fault event besides it.
		endsAt := 0
		for k := endPos - 1; k >= 0 && sameTime(ends[byEnd[k]], t); k-- {
			endsAt++
		}
		arrivalsAt := 0
		for k := eligPos; k < n && sameTime(a.elig[byElig[k]], t); k++ {
			arrivalsAt++
		}
		if endsAt+arrivalsAt+faultTriggers > 1 {
			continue
		}
		// Waiting queue at t: eligible strictly before t and not yet
		// started, plus an arrival at t that stayed queued (it triggered the
		// pass, so it was in the queue when the pass ran).
		queue := waiting
		if arrivalsAt == 1 {
			if p := byElig[eligPos]; starts[p] > t {
				pos, _ := slices.BinarySearch(waiting, p)
				pending = append(append(append(pending[:0], waiting[:pos]...), p), waiting[pos:]...)
				queue = pending
			}
		}
		if len(queue) == 0 {
			continue // nothing reserved, every start was a head start
		}
		head := slices.MinFunc(queue, a.comparePolicy)
		// Split the pass's starts into the head-loop prefix (queued ahead of
		// the head) and backfills (queued behind it), in policy order.
		prefix, backfill = prefix[:0], backfill[:0]
		for _, s := range started {
			if a.policyBefore(s, head) {
				prefix = append(prefix, s)
			} else {
				backfill = append(backfill, s)
			}
		}
		if len(backfill) == 0 {
			continue
		}
		slices.SortFunc(backfill, a.comparePolicy)
		// The reservation counts the head-loop prefix as running: it was
		// allocated before the shadow time was computed.
		free := a.trace.MachineNodes - downAt - busy
		for _, s := range prefix {
			free -= jobs[s].Nodes
		}
		slices.SortFunc(prefix, byEstEnd)
		shadow, extra, ok := reservation(t, free, a.trace.Jobs[head].Nodes, running, prefix, byEstEnd, estEnd, jobs)
		if !ok {
			continue
		}
		for _, b := range backfill {
			finishesBeforeShadow := t+a.trace.Jobs[b].EstimatedRuntime() <= shadow+validateEps
			fitsExtra := a.trace.Jobs[b].Nodes <= extra
			if !finishesBeforeShadow && !fitsExtra {
				return fmt.Errorf("sim: job %d (%d nodes, est %v) backfilled at %v past waiting job %d but neither finishes before the shadow time %v nor fits the %d extra nodes",
					a.res.Jobs[b].ID, a.trace.Jobs[b].Nodes, a.trace.Jobs[b].EstimatedRuntime(),
					t, a.res.Jobs[head].ID, shadow, extra)
			}
			if !finishesBeforeShadow {
				extra -= a.trace.Jobs[b].Nodes
			}
		}
	}
	return nil
}

// orderBy returns the indexes of key sorted by (key, index).
func orderBy(key []float64) []int {
	idx := make([]int, len(key))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(x, y int) int { return cmp.Or(cmp.Compare(key[x], key[y]), x-y) })
	return idx
}

// mergeLive appends to dst, in ascending order, the members of the
// ascending lists a and b that start after t.
func mergeLive(dst, a, b []int, starts []float64, t float64) []int {
	for len(a) > 0 || len(b) > 0 {
		var i int
		if len(b) == 0 || (len(a) > 0 && a[0] < b[0]) {
			i, a = a[0], a[1:]
		} else {
			i, b = b[0], b[1:]
		}
		if starts[i] > t {
			dst = append(dst, i)
		}
	}
	return dst
}

// comparePolicy is policyBefore as a three-way comparison.
func (a *auditor) comparePolicy(i, k int) int {
	switch {
	case i == k:
		return 0
	case a.policyBefore(i, k):
		return -1
	}
	return 1
}

// reservation recomputes the EASY shadow time and extra node count the
// engine saw in the pass at time t for a head job needing `need` nodes.
// free is what the pass left free: the machine less failed nodes, the jobs
// running strictly across t and the head-loop prefix. running and prefix,
// each sorted by order, the engine's (estEnd, index) reservation
// tie-break, are merged until enough nodes are released.
func reservation(t float64, free, need int, running, prefix []int, order func(x, y int) int,
	estEnd []float64, jobs []metrics.JobResult) (shadow float64, extra int, ok bool) {
	if need <= free {
		return t, free - need, true
	}
	for len(running) > 0 || len(prefix) > 0 {
		var i int
		if len(prefix) == 0 || (len(running) > 0 && order(running[0], prefix[0]) < 0) {
			i, running = running[0], running[1:]
		} else {
			i, prefix = prefix[0], prefix[1:]
		}
		free += jobs[i].Nodes
		if free >= need {
			return estEnd[i], free - need, true
		}
	}
	return 0, 0, false
}
