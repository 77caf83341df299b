package sim

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/metrics"
)

// Fault-aware audit support. Results record only each job's final,
// successful attempt: killed attempts (their node usage, their completion
// events) are invisible to the reconstruction the legality auditor
// performs. The helpers here decide which scheduling instants remain
// exactly reconstructable under a fault trace — the auditor skips the
// rest, preserving its no-false-positive contract.

// validateFaultBookkeeping checks one job's requeue fields are internally
// consistent. It needs no config: a fault-free run must report all-zero
// fault fields, and a requeued job's last kill must fall between its
// submission and its final start.
func validateFaultBookkeeping(r metrics.JobResult) error {
	if r.Requeues < 0 || r.LostSeconds < 0 {
		return fmt.Errorf("sim: job %d has negative fault bookkeeping (requeues %d, lost %v)",
			r.ID, r.Requeues, r.LostSeconds)
	}
	if r.Requeues == 0 {
		if r.RequeuedAt != 0 || r.LostSeconds != 0 {
			return fmt.Errorf("sim: job %d never requeued but RequeuedAt=%v LostSeconds=%v",
				r.ID, r.RequeuedAt, r.LostSeconds)
		}
		return nil
	}
	if r.RequeuedAt < r.Submit || r.RequeuedAt > r.Start {
		return fmt.Errorf("sim: job %d requeued at %v outside [submit %v, start %v]",
			r.ID, r.RequeuedAt, r.Submit, r.Start)
	}
	return nil
}

// faultView is what the auditor needs to know about the fault trace at
// one instant.
type faultView struct {
	// failedDown is the number of nodes out of service at the instant due
	// to hard failures — a deterministic capacity reduction the
	// reconstruction can account for.
	failedDown int
	// drainActive reports a node down at the instant due to a graceful
	// Drain. Whether that drain reduced free capacity immediately (free
	// node) or only at its job's release (busy node) depends on node-level
	// placement the result does not record, so such instants are skipped.
	drainActive bool
	// eventsAt counts fault events falling exactly on the instant; each
	// one triggered a scheduling pass of its own.
	eventsAt int
}

// faultCursor replays a fault trace (time-ordered, as Validate enforces)
// forward through non-decreasing instants, keeping per-node failed and
// drained marks and their counts.
type faultCursor struct {
	trace           faults.Trace
	next            int
	failed, drained []bool
	failedDown      int
	drainedNodes    int
}

func newFaultCursor(trace faults.Trace) faultCursor {
	n := maxNodeID(trace)
	return faultCursor{trace: trace, failed: make([]bool, n), drained: make([]bool, n)}
}

// advance applies the events through instant t and reports the view at t.
// Events at exactly t are applied: the engine processes an event and then
// reschedules at the same instant, so starts at t observe the event's
// effect whenever it is the instant's only trigger — and multi-trigger
// instants are skipped by the caller regardless.
func (c *faultCursor) advance(t float64) faultView {
	for ; c.next < len(c.trace) && c.trace[c.next].Time <= t; c.next++ {
		ev := c.trace[c.next]
		switch ev.Kind {
		case faults.Fail:
			if !c.failed[ev.Node] {
				c.failed[ev.Node] = true
				c.failedDown++
			}
		case faults.Drain:
			if !c.failed[ev.Node] && !c.drained[ev.Node] {
				c.drained[ev.Node] = true
				c.drainedNodes++
			}
		case faults.Repair:
			if c.failed[ev.Node] {
				c.failed[ev.Node] = false
				c.failedDown--
			}
			if c.drained[ev.Node] {
				c.drained[ev.Node] = false
				c.drainedNodes--
			}
		default:
			// Unknown kinds are rejected by Validate before a run starts.
		}
	}
	v := faultView{failedDown: c.failedDown, drainActive: c.drainedNodes > 0}
	for k := c.next - 1; k >= 0 && sameTime(c.trace[k].Time, t); k-- {
		v.eventsAt++
	}
	return v
}

// maxNodeID returns the exclusive upper bound of node IDs in the trace.
func maxNodeID(trace faults.Trace) int {
	max := 0
	for _, ev := range trace {
		if ev.Node+1 > max {
			max = ev.Node + 1
		}
	}
	return max
}
