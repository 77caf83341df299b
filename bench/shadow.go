package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The shadow replay attributes a replay's wall time to layers without
// touching the engine. A finished sim.Result fixes every start and end
// time, so the sequence of cluster states the engine saw can be rebuilt
// from outside: replay the start and release events in time order on a
// fresh cluster.State and, at each start, make the same public calls
// sim.PlaceJob makes, timing each one. The costs computed this way must
// equal the recorded ones bit for bit, which proves the states matched.

// Span names of the shadow replay. The first component is the layer.
const (
	spShadow     = "bench.shadow"
	spStart      = "bench.shadow_start"
	spSelect     = "core.select"
	spSelectRef  = "core.select_ref"
	spScheduleOf = "costmodel.schedule_for"
	spPriceCold  = "costmodel.price_cold"
	spPriceWarm  = "costmodel.price_warm"
	spAllocate   = "cluster.allocate"
	spRelease    = "cluster.release"
	spAnneal     = "search.anneal"
)

const (
	annealBudget  = 256
	annealSamples = 32
)

type shadowEvent struct {
	t       float64
	release bool
	idx     int // trace index
}

type shadowCounts struct {
	selects    int
	priced     int // jobs whose candidate pair was priced
	priceCalls int
	nodes      int
	leaves     int // distinct leaves summed over priced allocations
	mismatches int
}

func (c *shadowCounts) add(o shadowCounts) {
	c.selects += o.selects
	c.priced += o.priced
	c.priceCalls += o.priceCalls
	c.nodes += o.nodes
	c.leaves += o.leaves
	c.mismatches += o.mismatches
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// touchedLeaves counts the distinct leaf switches under a node list.
func touchedLeaves(topo *topology.Topology, nodes []int, seen []bool) int {
	n := 0
	for _, id := range nodes {
		if l := topo.LeafOf(id); !seen[l] {
			seen[l] = true
			n++
		}
	}
	for _, id := range nodes {
		seen[topo.LeafOf(id)] = false
	}
	return n
}

// shadowReplay replays res on a fresh state, making exactly the engine's
// calls. With a non-nil anneal selector it is the extras pass instead:
// every candidate pair is priced a second time at once (warm: the
// compiled-schedule memo hits, so only evaluation is left) and anneal is
// asked to select on the first annealSamples priced states. The extras
// disturb the caches, so their pass is kept apart from the one the
// residual is computed from.
func shadowReplay(tr *tracer, topo *topology.Topology, trace workload.Trace,
	res *sim.Result, anneal core.Selector) (shadowCounts, error) {
	var c shadowCounts
	root := tr.begin(spShadow, -1, 0)
	defer tr.end(root)

	sel, err := core.New(res.Algorithm)
	if err != nil {
		return c, err
	}
	defSel, err := core.New(core.Default)
	if err != nil {
		return c, err
	}
	events := make([]shadowEvent, 0, 2*len(res.Jobs))
	for i, j := range res.Jobs {
		events = append(events, shadowEvent{j.Start, false, i}, shadowEvent{j.End, true, i})
	}
	sort.Slice(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		if ea.t != eb.t {
			return ea.t < eb.t
		}
		if ea.release != eb.release {
			return ea.release
		}
		return ea.idx < eb.idx
	})

	st := cluster.New(topo)
	seen := make([]bool, topo.NumLeaves())
	for _, ev := range events {
		j := trace.Jobs[ev.idx]
		id := int64(j.ID)
		if ev.release {
			s := tr.begin(spRelease, root, id)
			err := st.Release(j.ID)
			tr.end(s)
			if err != nil {
				return c, err
			}
			continue
		}
		pattern := collective.RD
		if p, ok := j.Mix.PrimaryPattern(); ok {
			pattern = p
		}
		req := core.Request{Job: j.ID, Nodes: j.Nodes, Class: j.Class, Pattern: pattern}
		start := tr.begin(spStart, root, id)

		s := tr.begin(spSelect, start, id)
		nodes, err := sel.Select(st, req)
		tr.end(s)
		if err != nil {
			return c, fmt.Errorf("shadow select job %d: %w", j.ID, err)
		}
		c.selects++

		if j.Class == cluster.CommIntensive && len(j.Mix.Comms) > 0 && j.Nodes > 1 {
			s = tr.begin(spSelectRef, start, id)
			defNodes, err := defSel.Select(st, req)
			tr.end(s)
			if err != nil {
				return c, fmt.Errorf("shadow reference select job %d: %w", j.ID, err)
			}
			c.selects++

			s = tr.begin(spScheduleOf, start, id)
			_, err = costmodel.ScheduleFor(pattern, j.Nodes)
			tr.end(s)
			if err != nil {
				return c, err
			}

			price := func(name string) (x, d float64, err error) {
				s := tr.begin(name, start, id)
				defer tr.end(s)
				if x, err = costmodel.CandidateCostMode(st, j.ID, j.Class, nodes, pattern, costmodel.ModeEffectiveHops); err != nil {
					return 0, 0, err
				}
				d, err = costmodel.CandidateCostMode(st, j.ID, j.Class, defNodes, pattern, costmodel.ModeEffectiveHops)
				return x, d, err
			}
			costX, costD, err := price(spPriceCold)
			if err != nil {
				return c, fmt.Errorf("shadow price job %d: %w", j.ID, err)
			}
			if anneal != nil {
				if _, _, err := price(spPriceWarm); err != nil {
					return c, err
				}
			}
			c.priced++
			c.priceCalls += 2
			c.leaves += touchedLeaves(topo, nodes, seen)
			if !sameBits(costX, res.Jobs[ev.idx].CommCost) || !sameBits(costD, res.Jobs[ev.idx].RefCost) {
				c.mismatches++
			}
			if anneal != nil && c.priced <= annealSamples {
				s = tr.begin(spAnneal, start, id)
				_, err := anneal.Select(st, req)
				tr.end(s)
				if err != nil {
					return c, fmt.Errorf("anneal job %d: %w", j.ID, err)
				}
			}
		}

		s = tr.begin(spAllocate, start, id)
		err = st.Allocate(j.ID, j.Class, nodes)
		tr.end(s)
		if err != nil {
			return c, fmt.Errorf("shadow allocate job %d: %w", j.ID, err)
		}
		c.nodes += len(nodes)
		tr.end(start)
	}
	return c, nil
}

// scheduleBuild times uncached schedule construction over the trace's
// distinct (pattern, ranks).
func scheduleBuild(trace workload.Trace) (time.Duration, error) {
	type key struct {
		p collective.Pattern
		n int
	}
	seen := map[key]bool{}
	var total time.Duration
	for _, j := range trace.Jobs {
		p, ok := j.Mix.PrimaryPattern()
		if !ok || seen[key{p, j.Nodes}] {
			continue
		}
		seen[key{p, j.Nodes}] = true
		t0 := time.Now()
		_, err := p.Schedule(j.Nodes)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// timeInputs measures the input-building layers directly.
func (r *run) timeInputs() error {
	m := replayMachines[r.spec.Name]
	t0 := time.Now()
	topo := m.preset.NewTopology()
	r.set("topology.build_ms", ms(time.Since(t0)))

	t0 = time.Now()
	cluster.New(topo)
	r.set("cluster.layout_ms", ms(time.Since(t0)))

	p := onTopology(m.preset, topo)
	s := subSeed(r.seed, streamReplay, 0)
	t0 = time.Now()
	raw := p.Synthesize(r.spec.Jobs, s)
	r.set("workload.synthesize_ms", ms(time.Since(t0)))

	t0 = time.Now()
	tagged, err := raw.Tag(commFraction, collective.SinglePattern(m.pattern, commShare), s+tagOffset)
	r.set("workload.tag_ms", ms(time.Since(t0)))
	if err != nil {
		return err
	}
	d, err := scheduleBuild(tagged)
	r.set("collective.schedule_build_ms", ms(d))
	return err
}

// shadowLayers are the spans whose sum the engine's wall time is compared
// with: every call sim.PlaceJob and the event loop make into other layers.
// ScheduleFor is timed but left out of the sum: the engine reaches it only
// through CandidateCostMode, which the cold pricing span already covers.
var shadowLayers = []string{spSelect, spSelectRef, spPriceCold, spAllocate, spRelease}

func traceReplay(r *run, v any) error {
	in := v.(*replayInput)
	if err := r.timeInputs(); err != nil {
		return err
	}
	trace := in.traces[0]
	algs := core.Algorithms
	placements := float64(len(algs) * len(trace.Jobs))
	anneal, err := core.NewWith(core.Anneal, core.Options{AnnealBudget: annealBudget})
	if err != nil {
		return err
	}

	// Each repetition replays trace 0 untraced and shadows the results, so
	// the wall time and the layer times it is split into come from the same
	// few seconds of this machine. Metrics are medians over
	// the repetitions; the last repetition's exact pass is what -trace-out
	// writes.
	perAlg := make([][]float64, len(algs)) // ms, first (cold) repetition left out
	layerUs := map[string][]float64{}      // per placement
	var repS, residualS, overheadS, compile []float64
	var results []*sim.Result
	var counts shadowCounts
	begin := time.Now()
	for rep := 0; rep < 2 || !r.spent(begin); rep++ {
		// Algorithm by algorithm: replay untraced, then shadow that result
		// at once, so the two are as close in time as they can be.
		tr := newTracer()
		results = make([]*sim.Result, len(algs))
		counts = shadowCounts{}
		wall := 0.0
		for a, alg := range algs {
			t0 := time.Now()
			res, err := sim.RunContinuous(sim.Config{Topology: in.topo, Algorithm: alg}, trace)
			d := time.Since(t0)
			r.op(1)
			if err != nil {
				return fmt.Errorf("%v: %w", alg, err)
			}
			results[a] = res
			wall += d.Seconds()
			if rep > 0 {
				perAlg[a] = append(perAlg[a], ms(d))
			}
			c, err := shadowReplay(tr, in.topo, trace, res, nil)
			r.op(1)
			if err != nil {
				r.fail(1, "shadow replay %v: %v", alg, err)
				continue
			}
			if c.mismatches > 0 {
				r.fail(1, "shadow replay %v: %d of %d priced jobs disagree with the engine's costs",
					alg, c.mismatches, c.priced)
			}
			counts.add(c)
		}
		r.checkReplay(in, 0, results, rep == 0)
		repS = append(repS, wall)
		lt := tr.layerTimes()
		layers := 0.0
		for _, name := range shadowLayers {
			layerUs[name] = append(layerUs[name], us(lt[name].Total)/placements)
			layers += lt[name].Total.Seconds()
		}
		layerUs[spScheduleOf] = append(layerUs[spScheduleOf], us(lt[spScheduleOf].Total)/placements)
		residualS = append(residualS, wall-layers)
		overheadS = append(overheadS, (lt[spShadow].Self + lt[spStart].Self).Seconds())

		r.tr = tr

		// Extras pass, adaptive only, on a tracer of its own: cold and warm
		// pricing side by side, and the annealer.
		extra := newTracer()
		if _, err := shadowReplay(extra, in.topo, trace, results[len(algs)-1], anneal); err != nil {
			return err
		}
		lt = extra.layerTimes()
		cold, warm := lt[spPriceCold].Total, lt[spPriceWarm].Total
		layerUs[spPriceWarm] = append(layerUs[spPriceWarm], us(warm)/float64(len(trace.Jobs)))
		layerUs[spAnneal] = append(layerUs[spAnneal], ms(lt[spAnneal].Total)/float64(max(lt[spAnneal].Calls, 1)))
		compile = append(compile, ratio(float64(cold-warm), float64(cold)))
	}

	untraced := 0.0 // seconds: sum of the warm per-algorithm medians
	for a, alg := range algs {
		r.set("sim.replay_ms."+alg.String(), median(perAlg[a]))
		r.note("sim.replay_ms."+alg.String(), perAlg[a], "ms")
		untraced += median(perAlg[a]) / 1e3
	}
	r.set("sim.cold_over_warm", ratio(repS[0], median(repS[1:])))

	perJob := func(name string) float64 { return median(layerUs[name]) }
	r.set("core.select_us_per_job", perJob(spSelect))
	r.set("core.select_ref_us_per_job", perJob(spSelectRef))
	r.set("costmodel.schedule_us_per_job", perJob(spScheduleOf))
	r.set("costmodel.price_cold_us_per_job", perJob(spPriceCold))
	r.set("costmodel.price_warm_us_per_job", perJob(spPriceWarm))
	r.set("costmodel.compile_share", median(compile))
	r.set("cluster.allocate_us_per_job", perJob(spAllocate))
	r.set("cluster.release_us_per_job", perJob(spRelease))
	r.set("search.anneal_ms_per_select", perJob(spAnneal))
	r.note("costmodel.price_cold_us_per_job", layerUs[spPriceCold], "us")
	r.set("sim.residual_us_per_job", median(residualS)*1e6/placements)
	r.set("sim.residual_share", ratio(median(residualS), untraced))
	r.note("sim.residual_s", residualS, "s")
	r.set("bench.trace_overhead_frac", ratio(median(overheadS), untraced))

	adaptive := results[len(algs)-1]
	t0 := time.Now()
	err = sim.ValidateResultConfig(adaptive, trace, sim.Config{Topology: in.topo, Algorithm: adaptive.Algorithm})
	r.set("sim.validate_ms", ms(time.Since(t0)))
	if err != nil {
		return err
	}
	t0 = time.Now()
	summary := metrics.Summarize(adaptive.Jobs)
	r.set("metrics.summarize_us", us(time.Since(t0)))

	started, backfill := 0, 0
	for _, res := range results {
		started += len(res.Jobs)
		backfill += backfilled(res.Jobs)
	}
	r.set("cluster.nodes_allocated", float64(counts.nodes))
	r.set("costmodel.touched_leaves_mean", ratio(float64(counts.leaves), float64(counts.priced)))
	r.set("sim.jobs_started", float64(started))
	r.set("sim.backfilled_jobs", float64(backfill))
	r.set("core.select_calls", float64(counts.selects))
	r.set("costmodel.price_calls", float64(counts.priceCalls))
	r.set("sim.exec_hours.adaptive", summary.TotalExecHours)
	r.set("sim.wait_hours.adaptive", summary.TotalWaitHours)
	r.set("sim.exec_improv_pct", metrics.ImprovementPct(results[0].Summary.TotalExecHours, summary.TotalExecHours))
	r.set("sim.avg_comm_cost.adaptive", summary.AvgCommCost)
	r.set("bench.shadow_parity", ratio(float64(counts.priced-counts.mismatches), float64(counts.priced)))
	return nil
}
