package cluster

import "fmt"

// Node availability management, mirroring SLURM's drain/down handling: a
// drained node stops being eligible for new allocations immediately, but a
// job already running on it keeps it until release. A failed node goes
// down hard — the caller kills and requeues its job. Resuming (or
// repairing) makes the node allocatable again.

// downWord names why a node is out of service, for error messages.
func (s *State) downWord(id int) string {
	if s.NodeFailed(id) {
		return "down (failed)"
	}
	return "drained"
}

// Drain marks a node ineligible for new allocations. Draining an already
// drained node is a no-op.
func (s *State) Drain(id int) error {
	if id < 0 || id >= s.topo.NumNodes() {
		return fmt.Errorf("cluster: drain: node %d out of range", id)
	}
	if s.NodeDown(id) {
		return nil
	}
	b := s.lay.NodeBit[id]
	s.downBits[b>>6] |= 1 << (b & 63)
	s.down++
	if !s.isSet(s.busyBits, id) {
		// Free node leaves the allocatable pool now.
		l := s.topo.LeafOf(id)
		s.leafUnavail[l]++
		s.adjustFree(l, -1)
		s.free--
	}
	s.gen++
	return nil
}

// Resume returns a drained node to service. Resuming a healthy node is a
// no-op.
func (s *State) Resume(id int) error {
	if id < 0 || id >= s.topo.NumNodes() {
		return fmt.Errorf("cluster: resume: node %d out of range", id)
	}
	if !s.NodeDown(id) {
		return nil
	}
	b := s.lay.NodeBit[id]
	s.downBits[b>>6] &^= 1 << (b & 63)
	s.down--
	// Returning to service always clears a failure mark, so a resumed node
	// never stays flagged failed (failed ⇒ down is an invariant).
	if s.NodeFailed(id) {
		s.failedBits[b>>6] &^= 1 << (b & 63)
		s.failed--
	}
	if !s.isSet(s.busyBits, id) {
		l := s.topo.LeafOf(id)
		s.leafUnavail[l]--
		s.adjustFree(l, 1)
		s.free++
	}
	s.gen++
	return nil
}

// Fail takes a node down hard. Unlike Drain, a job running on the node
// does not keep it: the caller must kill and requeue that job. Fail marks
// the node down and failed and returns the occupying job (or -1) so the
// caller can Release it — the node-down mark is applied first, so the
// Release moves the node out of service instead of back to the free pool.
// Failing an already failed node is a no-op.
func (s *State) Fail(id int) (victim JobID, err error) {
	if id < 0 || id >= s.topo.NumNodes() {
		return -1, fmt.Errorf("cluster: fail: node %d out of range", id)
	}
	if s.NodeFailed(id) {
		return -1, nil
	}
	if err := s.Drain(id); err != nil {
		return -1, err
	}
	b := s.lay.NodeBit[id]
	s.failedBits[b>>6] |= 1 << (b & 63)
	s.failed++
	s.gen++
	return s.NodeJob(id), nil
}

// Repair returns a failed or drained node to service: the failure mark is
// cleared and the node is resumed. Repairing a healthy node is a no-op. A
// failed node must not be repaired while it still carries an allocation
// (the caller kills the job first); that state is rejected so the free
// counters cannot be corrupted.
func (s *State) Repair(id int) error {
	if id < 0 || id >= s.topo.NumNodes() {
		return fmt.Errorf("cluster: repair: node %d out of range", id)
	}
	if s.NodeFailed(id) {
		if job := s.NodeJob(id); job >= 0 {
			return fmt.Errorf("cluster: repair: failed node %d still allocated to job %d", id, job)
		}
		b := s.lay.NodeBit[id]
		s.failedBits[b>>6] &^= 1 << (b & 63)
		s.failed--
		s.gen++
	}
	return s.Resume(id)
}

// NodeDown reports whether the node is out of service (drained or failed).
func (s *State) NodeDown(id int) bool { return s.isSet(s.downBits, id) }

// NodeFailed reports whether the node is down due to a hard failure.
func (s *State) NodeFailed(id int) bool { return s.isSet(s.failedBits, id) }

// FailedTotal returns the number of hard-failed nodes.
func (s *State) FailedTotal() int { return s.failed }

// DownTotal returns the number of drained nodes (busy or free).
func (s *State) DownTotal() int { return s.down }
