package netsim

import "fmt"

// LinkStats accumulates per-directed-link occupancy over a Run: how long
// each link carried at least one flow and how many bytes crossed it. The
// Figure 1 analysis uses it to show the inter-switch trunk as the
// contended resource.
type LinkStats struct {
	net *Network
	// BusySeconds maps link ID -> time with >= 1 active flow.
	BusySeconds map[int]float64
	// Bytes maps link ID -> total bytes carried.
	Bytes map[int]float64
	// Duration is the simulated time span the stats cover.
	Duration float64
}

func newLinkStats(n *Network) *LinkStats {
	return &LinkStats{
		net:         n,
		BusySeconds: make(map[int]float64),
		Bytes:       make(map[int]float64),
	}
}

// account charges one fluid interval: every link crossed by an active flow
// is busy for dt and carries rate*dt bytes per flow.
func (s *LinkStats) account(flows []*flowState, rates []float64, dt float64) {
	if dt <= 0 {
		return
	}
	seen := make(map[int]bool)
	for fi, f := range flows {
		for _, l := range f.links {
			seen[l] = true
			s.Bytes[l] += rates[fi] * dt
		}
	}
	for l := range seen {
		s.BusySeconds[l] += dt
	}
}

// SwitchUplinkBusy returns the busy fraction of the named switch's uplink
// (towards its parent), or an error for unknown switches.
func (s *LinkStats) SwitchUplinkBusy(name string) (float64, error) {
	for idx, sw := range s.net.topo.Switches {
		if sw.Name == name {
			id := s.net.switchBase + 2*idx
			if s.Duration <= 0 {
				return 0, nil
			}
			return s.BusySeconds[id] / s.Duration, nil
		}
	}
	return 0, fmt.Errorf("netsim: unknown switch %q", name)
}

// RunWithStats is Run with per-link utilisation accounting.
func (n *Network) RunWithStats(jobs []CollectiveJob) ([]JobTiming, *LinkStats, error) {
	stats := newLinkStats(n)
	timings, err := n.run(jobs, stats)
	if err != nil {
		return nil, nil, err
	}
	return timings, stats, nil
}
