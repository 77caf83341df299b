package sim

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// Placement is the outcome of placing one job on the cluster: the chosen
// nodes, the Eq. 7 modified execution time, and the cost bookkeeping for
// the dominant pattern.
type Placement struct {
	// Placed is the selection as the selector built and pricing validated
	// it: free-rank runs bound to the state's generation and kept in the
	// caller's scratch, or the remapped list. Committed
	// (State.AllocatePlacement) on the unchanged state it is not checked
	// again; once the state moved, unlisted runs are stale, and once the
	// scratch placed again, they are gone (cluster.ErrReusedPlacement).
	// Nobody lists it but a caller that asks (Placed.Nodes, rank order).
	Placed cluster.Placement
	// Exec is the modified runtime (Eq. 7); equals the job's base runtime
	// for compute-intensive jobs and under the default algorithm.
	Exec float64
	// Cost and RefCost are the Eq. 6 costs of this allocation and of the
	// hypothetical default allocation, for the job's dominant pattern.
	Cost    float64
	RefCost float64
	// Ratio is the communication-weighted mean cost ratio applied.
	Ratio float64
}

// ReferenceSelector returns the reference selector PlaceJob takes for jobs
// placed by algorithm a: the default selector, or nil when a is Default, whose
// selection is then its own reference.
func ReferenceSelector(a core.Algorithm) core.Selector {
	if a == core.Default {
		return nil
	}
	return core.MustNew(core.Default)
}

// PlaceJob selects nodes for the job with the given selector, evaluates the
// paper's runtime model against the hypothetical default placement from the
// same cluster state, and returns the placement WITHOUT committing it. The
// state is unchanged on return. defSel selects the default placement; nil
// means selector is the default selector, and its selection serves as both
// (ReferenceSelector). With remap (the paper's §7 "process mapping after
// node allocation" future work) and a communication-intensive job, the
// rank→node assignment over the selected nodes is reordered to reduce the
// Eq. 6 cost of the dominant pattern before the runtime model is applied;
// with a nil defSel the reference is the selection before the remap. The
// placement lives in sc until sc's next placement (core.Scratch): a caller
// that keeps it past its next placement passes a scratch of its own. With a
// warm sc and no remap, placing a job allocates nothing.
func PlaceJob(sc *core.Scratch, st *cluster.State, selector, defSel core.Selector, j workload.Job,
	mode costmodel.Mode, remap bool) (Placement, error) {
	pattern := collective.RD
	if p, ok := j.Mix.PrimaryPattern(); ok {
		pattern = p
	}
	req := core.Request{Job: j.ID, Nodes: j.Nodes, Class: j.Class, Pattern: pattern}
	placed, price, err := core.Place(selector, st, req, sc)
	if err != nil {
		return Placement{}, fmt.Errorf("sim: job %d: %w", j.ID, err)
	}
	pl := Placement{Placed: placed, Exec: j.Runtime, Ratio: 1}
	if j.Class != cluster.CommIntensive || len(j.Mix.Comms) == 0 || j.Nodes <= 1 {
		return pl, nil
	}
	def := placed // with a nil defSel, the selection before any remap is its own reference
	if remap {
		mapped, _, err := mapping.Remap(st, j.ID, j.Class, def.Nodes(), pattern, mapping.Options{})
		if err != nil {
			return Placement{}, fmt.Errorf("sim: job %d remap: %w", j.ID, err)
		}
		pl.Placed = cluster.NewPlacement(mapped)
	}
	// The selector's price, if it made one, is of its own selection in
	// effective hops: it serves the primary pattern's component only when
	// that is what is placed and how it is priced.
	if remap || mode != costmodel.ModeEffectiveHops {
		price = core.Price{}
	}
	if defSel != nil {
		if def, _, err = core.Place(defSel, st, req, sc.Reference()); err != nil {
			return Placement{}, fmt.Errorf("sim: job %d (default reference): %w", j.ID, err)
		}
	}
	// The default selector's own jobs, and most jobs of any selector on an
	// empty enough machine, are placed where the reference is: pricing is
	// a deterministic function of its arguments, so one evaluation serves
	// as both costs. Selections made on one state compare by their runs.
	same := pl.Placed.SameNodes(&def)
	pr := sc.Pricing()
	var buf [4]float64
	ratios := buf[:0]
	for _, c := range j.Mix.Comms {
		costX := price.Cost
		if !price.OK || c.Pattern != pattern {
			if costX, err = pr.PlacementCostMode(st, j.ID, j.Class, &pl.Placed, c.Pattern, mode); err != nil {
				return Placement{}, fmt.Errorf("sim: job %d cost: %w", j.ID, err)
			}
		}
		costD := costX
		if !same {
			if costD, err = pr.PlacementCostMode(st, j.ID, j.Class, &def, c.Pattern, mode); err != nil {
				return Placement{}, fmt.Errorf("sim: job %d reference cost: %w", j.ID, err)
			}
		}
		ratios = append(ratios, costmodel.RuntimeRatio(costX, costD))
		if c.Pattern == pattern {
			pl.Cost = costX
			pl.RefCost = costD
		}
	}
	exec, err := costmodel.ModifiedRuntimeMix(j.Runtime, j.Mix, ratios)
	if err != nil {
		return Placement{}, err
	}
	if exec < 1 {
		exec = 1 // a job always takes at least a second
	}
	pl.Exec = exec
	total, weight := 0.0, 0.0
	for k, c := range j.Mix.Comms {
		total += ratios[k] * c.Frac
		weight += c.Frac
	}
	if weight > 0 {
		pl.Ratio = total / weight
	}
	return pl, nil
}
