package sim

import (
	"fmt"
	"sort"

	"repro/internal/faults"
)

// The backfill-legality audit as it stood before it became one pass over
// the start instants: at every instant it rescans every job for the
// instant's completions, arrivals, waiting set and running set, and
// replays the fault trace from its start. It is kept here as the oracle
// the one-pass audit must match error for error (TestBackfillAuditMatchesRef,
// FuzzBackfillAudit); queue order is Policy.less in both.

// checkBackfillLegalityRef audits backfilled starts against the EASY rule,
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
func checkBackfillLegalityRef(a *auditor) error {
	starts := make(map[float64][]int)
	for i := range a.res.Jobs {
		starts[a.res.Jobs[i].Start] = append(starts[a.res.Jobs[i].Start], i)
	}
	instants := make([]float64, 0, len(starts))
	for t := range starts {
		instants = append(instants, t)
	}
	sort.Float64s(instants)
	// Fault replay scratch: per-node failed/drained marks, sized to cover
	// every node the trace touches.
	var failedScratch, drainedScratch []bool
	if n := maxNodeID(a.cfg.Faults); n > 0 {
		failedScratch = make([]bool, n)
		drainedScratch = make([]bool, n)
	}
	for _, t := range instants {
		started := starts[t]
		downAt := 0
		faultTriggers := 0
		if len(a.cfg.Faults) > 0 {
			// Killed partial attempts are invisible to this reconstruction:
			// until the run's last kill instant the running set (and thus
			// the free count and the shadow time) cannot be recovered from
			// final results alone, so those instants are skipped.
			if a.hasRequeues && t <= a.maxRequeue {
				continue
			}
			fv := faultViewAtRef(a.cfg.Faults, t, failedScratch, drainedScratch)
			// A drained node's capacity effect depends on whether a job
			// occupied it at drain time — node-level placement the result
			// does not record. Skip instants with any drain in effect.
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
		ends, arrivals := 0, 0
		pendingArrival := -1
		for i := range a.res.Jobs {
			if sameTime(a.res.Jobs[i].End, t) {
				ends++
			}
			if sameTime(a.elig[i], t) {
				arrivals++
				if a.res.Jobs[i].Start > t {
					pendingArrival = i
				}
			}
		}
		if ends+arrivals+faultTriggers > 1 {
			continue
		}
		// Waiting queue at t: eligible strictly before t and not yet
		// started, plus an arrival at t that stayed queued (it triggered the
		// pass, so it was in the queue when the pass ran).
		var waiting []int
		for i := range a.res.Jobs {
			if a.res.Jobs[i].Start <= t {
				continue
			}
			if a.elig[i] < t || i == pendingArrival {
				waiting = append(waiting, i)
			}
		}
		if len(waiting) == 0 {
			continue // nothing reserved, every start was a head start
		}
		head := waiting[0]
		for _, i := range waiting[1:] {
			if a.policyBefore(i, head) {
				head = i
			}
		}
		// Split the pass's starts into the head-loop prefix (queued ahead of
		// the head) and backfills (queued behind it), in policy order.
		var prefix, backfills []int
		for _, s := range started {
			if a.policyBefore(s, head) {
				prefix = append(prefix, s)
			} else {
				backfills = append(backfills, s)
			}
		}
		if len(backfills) == 0 {
			continue
		}
		sort.Slice(backfills, func(x, y int) bool { return a.policyBefore(backfills[x], backfills[y]) })
		shadow, extra, ok := reservationAtRef(a, t, started, prefix, a.trace.Jobs[head].Nodes, downAt)
		if !ok {
			continue
		}
		for _, b := range backfills {
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

// reservationAtRef recomputes the EASY shadow time and extra node count the
// engine saw in the pass at time t: jobs running strictly across t plus
// the pass's head-loop prefix (already allocated when the reservation was
// computed), for a head job needing `need` nodes. started lists every job
// beginning at t (all excluded from the strictly-running set); down is the
// number of nodes out of service at t due to hard failures, which shrink
// the free baseline.
func reservationAtRef(a *auditor, t float64, started, prefix []int, need, down int) (shadow float64, extra int, ok bool) {
	startedAtT := make(map[int]bool, len(started))
	for _, s := range started {
		startedAtT[s] = true
	}
	free := a.trace.MachineNodes - down
	type run struct {
		idx    int
		estEnd float64
		nodes  int
	}
	var running []run
	for i := range a.res.Jobs {
		if startedAtT[i] || a.res.Jobs[i].Start > t || a.res.Jobs[i].End <= t {
			continue
		}
		free -= a.res.Jobs[i].Nodes
		running = append(running, run{i, a.estEnd(i), a.res.Jobs[i].Nodes})
	}
	for _, s := range prefix {
		free -= a.res.Jobs[s].Nodes
		running = append(running, run{s, a.estEnd(s), a.res.Jobs[s].Nodes})
	}
	if need <= free {
		return t, free - need, true
	}
	// (estEnd, job index) mirrors the engine's reservation tie-break.
	sort.Slice(running, func(x, y int) bool {
		if running[x].estEnd != running[y].estEnd {
			return running[x].estEnd < running[y].estEnd
		}
		return running[x].idx < running[y].idx
	})
	for _, r := range running {
		free += r.nodes
		if free >= need {
			return r.estEnd, free - need, true
		}
	}
	return 0, 0, false
}

// faultViewAtRef replays trace (time-ordered, as Validate enforces) through
// instant t. Events at exactly t are applied: the engine processes an
// event and then reschedules at the same instant, so starts at t observe
// the event's effect whenever it is the instant's only trigger — and
// multi-trigger instants are skipped by the caller regardless.
func faultViewAtRef(trace faults.Trace, t float64, failed, drained []bool) faultView {
	for i := range failed {
		failed[i] = false
		drained[i] = false
	}
	var v faultView
	for _, ev := range trace {
		if ev.Time > t {
			break
		}
		if sameTime(ev.Time, t) {
			v.eventsAt++
		}
		switch ev.Kind {
		case faults.Fail:
			if !failed[ev.Node] {
				failed[ev.Node] = true
			}
		case faults.Drain:
			if !failed[ev.Node] {
				drained[ev.Node] = true
			}
		case faults.Repair:
			failed[ev.Node] = false
			drained[ev.Node] = false
		default:
			// Unknown kinds are rejected by Validate before a run starts.
		}
	}
	for i := range failed {
		if failed[i] {
			v.failedDown++
		}
		if drained[i] {
			v.drainActive = true
		}
	}
	return v
}
