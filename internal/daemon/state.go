package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// State persistence, mirroring slurmctld's StateSaveLocation: a daemon can
// snapshot its queue, running set, completed statistics, virtual clock and
// node states to JSON and be restored from that snapshot after a restart.
// Restored running jobs keep their exact node allocations and completion
// times; the virtual clock resumes where it stopped.
//
// Version 2, the one version Restore reads, stores the completed statistics
// as their running sums.

const stateVersion = 2

type persistedJob struct {
	ID        int64   `json:"id"`
	Name      string  `json:"name,omitempty"`
	Nodes     int     `json:"nodes"`
	Runtime   float64 `json:"runtime"`
	Class     string  `json:"class"`
	Pattern   string  `json:"pattern,omitempty"`
	CommShare float64 `json:"commshare,omitempty"`
	State     string  `json:"state"`
	After     int64   `json:"after,omitempty"`
	Submit    float64 `json:"submit"`
	Start     float64 `json:"start,omitempty"`
	End       float64 `json:"end,omitempty"`
	NodeIDs   []int   `json:"node_ids,omitempty"`
	Exec      float64 `json:"exec,omitempty"`
	Cost      float64 `json:"cost,omitempty"`
	RefCost   float64 `json:"ref_cost,omitempty"`
	Ratio     float64 `json:"ratio,omitempty"`
	Requeues  int     `json:"requeues,omitempty"`
	// RequeuedAt and LostSec carry a requeued job's fault accounting over
	// a restart (both zero, and omitted, for a job never killed).
	RequeuedAt float64 `json:"requeued_at,omitempty"`
	LostSec    float64 `json:"lost_sec,omitempty"`
}

type persistedState struct {
	Version    int      `json:"version"`
	VirtualNow float64  `json:"virtual_now"`
	NextID     int64    `json:"next_id"`
	DownNodes  []string `json:"down_nodes,omitempty"`
	// FailedNodes is the hard-failed subset of DownNodes; restore re-marks
	// them failed after re-draining so the distinction survives a restart.
	FailedNodes []string            `json:"failed_nodes,omitempty"`
	Queued      []persistedJob      `json:"queued,omitempty"`
	Running     []persistedJob      `json:"running,omitempty"`
	Stats       metrics.Accumulator `json:"stats"`
}

func (d *Daemon) persistJob(id int64) persistedJob {
	h := d.hist.get(id)
	pj := persistedJob{
		ID:         id,
		Name:       d.hist.name(h),
		Nodes:      int(h.nodes),
		Runtime:    h.runtime,
		Class:      h.class.String(),
		State:      h.state.String(),
		After:      h.after,
		Submit:     h.submit,
		Start:      h.start,
		End:        h.end,
		Requeues:   int(h.requeues),
		RequeuedAt: h.requeuedAt,
		LostSec:    h.lostSec,
	}
	if h.class == cluster.CommIntensive {
		pj.Pattern = h.pattern.String()
		pj.CommShare = h.share
	}
	if h.state == stateRunning {
		pj.NodeIDs = cluster.AppendNodes(d.cfg.Topology, nil, d.hist.masks.get(h.masks))
		pj.Exec = h.exec
		pj.Cost = h.cost
		pj.RefCost = h.refCost
		pj.Ratio = h.ratio
	}
	return pj
}

// SaveState writes a consistent snapshot of the daemon (taken on the
// engine goroutine) as JSON.
func (d *Daemon) SaveState(w io.Writer) error {
	var ps persistedState
	resp := d.call(func() Response {
		v := d.now()
		d.advance(v)
		ps = persistedState{
			Version:    stateVersion,
			VirtualNow: v,
			NextID:     d.nextID,
			Stats:      d.completed,
		}
		for id := 0; id < d.cfg.Topology.NumNodes(); id++ {
			if d.st.NodeDown(id) {
				ps.DownNodes = append(ps.DownNodes, d.cfg.Topology.NodeName(id))
			}
			if d.st.NodeFailed(id) {
				ps.FailedNodes = append(ps.FailedNodes, d.cfg.Topology.NodeName(id))
			}
		}
		for _, id := range d.queue.Jobs() {
			ps.Queued = append(ps.Queued, d.persistJob(id))
		}
		// Persist running jobs in a deterministic order.
		for _, id := range d.runningOrdered() {
			ps.Running = append(ps.Running, d.persistJob(id))
		}
		return Response{Ok: true}
	})
	if !resp.Ok {
		return fmt.Errorf("daemon: %s", resp.Error)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ps)
}

// runningOrdered returns the running jobs' IDs in ascending order, in a
// buffer the next call reuses (engine goroutine only).
func (d *Daemon) runningOrdered() []int64 {
	d.runIDs = d.runIDs[:0]
	for _, e := range d.core.Running {
		d.runIDs = append(d.runIDs, e.Key)
	}
	slices.Sort(d.runIDs)
	return d.runIDs
}

// SaveStateFile snapshots to a file (atomically via rename).
func (d *Daemon) SaveStateFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := d.SaveState(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// restoreJob gives a snapshot's live job its slot, in state, validated as
// a submission is.
func (d *Daemon) restoreJob(pj persistedJob, state jobState, nextID int64) (*histRecord, error) {
	if pj.ID < 1 || pj.ID >= nextID {
		return nil, fmt.Errorf("daemon: job %d outside the snapshot's IDs 1..%d", pj.ID, nextID-1)
	}
	if n := d.cfg.Topology.NumNodes(); pj.Nodes < 1 || pj.Nodes > n {
		return nil, fmt.Errorf("daemon: job %d needs %d nodes, outside 1..%d", pj.ID, pj.Nodes, n)
	}
	if d.hist.get(pj.ID) != nil {
		return nil, fmt.Errorf("daemon: job %d appears twice in the snapshot", pj.ID)
	}
	rec := histRecord{
		submit:     pj.Submit,
		start:      pj.Start,
		end:        pj.End,
		exec:       pj.Exec,
		cost:       pj.Cost,
		ratio:      pj.Ratio,
		refCost:    pj.RefCost,
		requeuedAt: pj.RequeuedAt,
		lostSec:    pj.LostSec,
		after:      pj.After,
		nodes:      int32(pj.Nodes),
		requeues:   int32(pj.Requeues),
		state:      state,
	}
	if err := rec.describe(pj.Runtime, pj.Class, pj.Pattern, pj.CommShare); err != nil {
		return nil, fmt.Errorf("daemon: job %d: %w", pj.ID, err)
	}
	h := d.hist.slot(pj.ID)
	*h = rec
	d.hist.setName(h, pj.Name)
	return h, nil
}

// Restore builds a new daemon from a snapshot. The config's topology must
// match the one the snapshot was taken on (node names are resolved against
// it).
func Restore(cfg Config, r io.Reader) (*Daemon, error) {
	var ps persistedState
	if err := json.NewDecoder(r).Decode(&ps); err != nil {
		return nil, fmt.Errorf("daemon: decoding state: %w", err)
	}
	if ps.Version != stateVersion {
		return nil, fmt.Errorf("daemon: state version %d, want %d", ps.Version, stateVersion)
	}
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	resp := d.call(func() Response {
		// Resume the virtual clock where the snapshot stopped.
		d.wallBase = d.clock().Add(-time.Duration(ps.VirtualNow / d.cfg.TimeScale * float64(time.Second)))
		d.nextID = ps.NextID
		d.completed = ps.Stats
		// Running allocations go first: a node drained while busy is down in
		// the snapshot but still carries its job, and Allocate rejects down
		// nodes — so the drains (and then the failure marks) are reapplied
		// only after every running job holds its nodes again.
		for _, pj := range ps.Running {
			h, err := d.restoreJob(pj, stateRunning, ps.NextID)
			if err != nil {
				return Response{Error: err.Error()}
			}
			if err := d.st.Allocate(cluster.JobID(pj.ID), h.class, pj.NodeIDs); err != nil {
				return Response{Error: fmt.Sprintf("restoring job %d: %v", pj.ID, err)}
			}
			h.masks = d.hist.masks.add(d.st.Allocation(cluster.JobID(pj.ID)).Masks())
			d.core.Running.Add(sched.Entry{End: h.end, Key: pj.ID, Nodes: pj.Nodes})
		}
		for _, name := range ps.DownNodes {
			id := d.cfg.Topology.NodeID(name)
			if id < 0 {
				return Response{Error: fmt.Sprintf("unknown node %q in snapshot", name)}
			}
			if err := d.st.Drain(id); err != nil {
				return Response{Error: err.Error()}
			}
		}
		for _, name := range ps.FailedNodes {
			id := d.cfg.Topology.NodeID(name)
			if id < 0 {
				return Response{Error: fmt.Sprintf("unknown node %q in snapshot", name)}
			}
			victim, err := d.st.Fail(id)
			if err != nil {
				return Response{Error: err.Error()}
			}
			if victim >= 0 {
				// A consistent snapshot never runs a job on a failed node.
				return Response{Error: fmt.Sprintf(
					"snapshot runs job %d on failed node %q", victim, name)}
			}
		}
		for _, pj := range ps.Queued {
			if _, err := d.restoreJob(pj, stateQueued, ps.NextID); err != nil {
				return Response{Error: err.Error()}
			}
			d.queue.Push(pj.ID, pj.Nodes)
		}
		d.tick(ps.VirtualNow)
		return Response{Ok: true}
	})
	if !resp.Ok {
		d.Close()
		return nil, fmt.Errorf("daemon: %s", resp.Error)
	}
	return d, nil
}

// RestoreFile restores from a snapshot file.
func RestoreFile(cfg Config, path string) (*Daemon, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Restore(cfg, f)
}
