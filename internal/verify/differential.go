package verify

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/workload"
)

// RunConfig is one cell of the differential matrix.
type RunConfig struct {
	Algorithm       core.Algorithm
	CostMode        costmodel.Mode
	DisableBackfill bool
	Policy          sim.Policy
	RankRemap       bool
	// Faults attaches the spec's generated fault trace to this cell (the
	// trace itself is a function of the spec, so the flag is all a cell
	// needs to carry).
	Faults bool
	// AnnealBudget tunes core.Anneal cells with sim.Config's conventions:
	// 0 means the search default (256 evaluated candidates), negative
	// disables the search so the cell is a seed passthrough — bit-identical
	// to core.Adaptive, a property checkAnnealPassthroughIdentity audits.
	// The anneal PRNG seed is left at its fixed default so every cell stays
	// a pure function of the spec. Ignored by the other algorithms.
	AnnealBudget int
}

// String renders the config as its reproducer form.
func (c RunConfig) String() string {
	s := fmt.Sprintf("alg=%v mode=%v policy=%v", c.Algorithm, c.CostMode, c.Policy)
	if c.DisableBackfill {
		s += " nobackfill"
	}
	if c.RankRemap {
		s += " remap"
	}
	if c.Faults {
		s += " faults"
	}
	if c.AnnealBudget != 0 {
		s += fmt.Sprintf(" anneal-budget=%d", c.AnnealBudget)
	}
	return s
}

// SimConfig expands the cell into a simulator configuration. ftrace is the
// spec's generated fault trace, attached only when the cell requests it.
func (c RunConfig) SimConfig(topo *topology.Topology) sim.Config {
	return sim.Config{
		Topology:        topo,
		Algorithm:       c.Algorithm,
		CostMode:        c.CostMode,
		DisableBackfill: c.DisableBackfill,
		Policy:          c.Policy,
		RankRemap:       c.RankRemap,
		AnnealBudget:    c.AnnealBudget,
	}
}

// simConfigFaults is SimConfig plus the fault trace for cells that carry
// the Faults flag.
func (c RunConfig) simConfigFaults(topo *topology.Topology, ftrace faults.Trace) sim.Config {
	cfg := c.SimConfig(topo)
	if c.Faults {
		cfg.Faults = ftrace
	}
	return cfg
}

var (
	allAlgorithms = []core.Algorithm{core.Default, core.Greedy, core.Balanced,
		core.Adaptive, core.BalancedNoPow2}
	allModes    = []costmodel.Mode{costmodel.ModeEffectiveHops, costmodel.ModeDistanceOnly, costmodel.ModeHopBytes}
	allPolicies = []sim.Policy{sim.FIFO, sim.SJF, sim.WidestFirst}
)

// AllConfigs returns the full differential matrix: every algorithm × cost
// mode × backfill setting × queue policy, plus rank-remapping variants
// (remap composes with any cell; two representatives keep the matrix
// bounded) and the annealing cells.
func AllConfigs() []RunConfig {
	var out []RunConfig
	for _, alg := range allAlgorithms {
		for _, mode := range allModes {
			for _, bf := range []bool{false, true} {
				for _, pol := range allPolicies {
					out = append(out, RunConfig{Algorithm: alg, CostMode: mode,
						DisableBackfill: bf, Policy: pol})
				}
			}
		}
	}
	out = append(out,
		RunConfig{Algorithm: core.Default, RankRemap: true},
		RunConfig{Algorithm: core.Adaptive, RankRemap: true},
	)
	return append(out, annealConfigs()...)
}

// annealConfigs is the annealing slice of the matrix. The anneal selector
// is priced per evaluated candidate, so the full algorithm × mode ×
// backfill × policy product would dominate the verifier's wall clock;
// representatives cover each axis instead: the default budget, a cheap
// budget crossed with the non-default policy / backfill / cost-mode axes,
// and the negative-budget passthrough whose bit-identity to core.Adaptive
// checkAnnealPassthroughIdentity asserts.
func annealConfigs() []RunConfig {
	return []RunConfig{
		{Algorithm: core.Anneal},
		{Algorithm: core.Anneal, AnnealBudget: 64, Policy: sim.SJF},
		{Algorithm: core.Anneal, AnnealBudget: 64, DisableBackfill: true},
		{Algorithm: core.Anneal, AnnealBudget: 64, CostMode: costmodel.ModeHopBytes},
		{Algorithm: core.Anneal, AnnealBudget: -1},
	}
}

// FaultConfigs returns the fault-trace cells of the matrix: representative
// (algorithm × mode × backfill × policy) combinations re-run with the
// spec's generated fault trace attached, so node kills, requeues and
// capacity loss exercise every selector family under the full audit.
func FaultConfigs() []RunConfig {
	return []RunConfig{
		{Algorithm: core.Default, Faults: true},
		{Algorithm: core.Greedy, Faults: true},
		{Algorithm: core.Adaptive, Faults: true},
		{Algorithm: core.Balanced, CostMode: costmodel.ModeHopBytes, Policy: sim.SJF, Faults: true},
		{Algorithm: core.Adaptive, Policy: sim.WidestFirst, Faults: true},
		{Algorithm: core.BalancedNoPow2, CostMode: costmodel.ModeDistanceOnly,
			DisableBackfill: true, Faults: true},
		{Algorithm: core.Anneal, AnnealBudget: 64, Faults: true},
	}
}

// ConfigsFor returns the matrix for a spec: the base cells, plus the fault
// cells when the spec injects faults. A fault-free spec gets exactly the
// original matrix, keeping its results bit-identical to older runs.
func ConfigsFor(spec TraceSpec) []RunConfig {
	configs := AllConfigs()
	if spec.Faults > 0 {
		configs = append(configs, FaultConfigs()...)
	}
	return configs
}

// Failure is a verification failure with enough context to reproduce it.
type Failure struct {
	Spec   TraceSpec
	Config *RunConfig // nil for trace-level / cross-configuration failures
	Err    error
}

// Error implements error; it leads with the reproducer.
func (f *Failure) Error() string {
	where := "cross-config"
	if f.Config != nil {
		where = f.Config.String()
	}
	return fmt.Sprintf("verify: [%v] [%s]: %v\nreproduce: %s", f.Spec, where, f.Err, f.Reproducer())
}

func (f *Failure) Unwrap() error { return f.Err }

// Reproducer returns the one-line command that replays exactly this trace
// through the full matrix.
func (f *Failure) Reproducer() string {
	return fmt.Sprintf("go test ./internal/verify -run TestDifferential -verify.seed=%d -verify.traces=1 -verify.jobs=%d",
		f.Spec.Seed, f.Spec.Jobs)
}

// Differential generates the spec's trace and runs the full verification
// stack over the chosen cells of the matrix (ConfigsFor(spec) is all of
// them; the fuzz targets run one cell per input): every cell is simulated,
// audited with sim.ValidateResultConfig, and conservation-checked against
// internal/metrics; then the cross-configuration metamorphic properties
// are asserted. The first violation is returned as a *Failure. Each cell
// simulates an independent cluster state, so the cells run on a worker
// pool of the given size (<= 0 means GOMAXPROCS, 1 forces sequential); the
// reported failure is always the lowest-indexed failing cell, matching the
// sequential loop.
func Differential(spec TraceSpec, configs []RunConfig, parallelism int) error {
	topo, trace, err := spec.Build()
	if err != nil {
		return &Failure{Spec: spec, Err: err}
	}
	ftrace := spec.BuildFaults(topo, trace)
	computeOnly := true
	for _, j := range trace.Jobs {
		if j.Class == cluster.CommIntensive {
			computeOnly = false
			break
		}
	}
	results := make([]*sim.Result, len(configs))
	err = sweep.Each(len(configs), parallelism, func(i int) error {
		cfg := configs[i].simConfigFaults(topo, ftrace)
		res, err := sim.RunContinuous(cfg, trace)
		if err != nil {
			return &Failure{Spec: spec, Config: &configs[i], Err: err}
		}
		if err := sim.ValidateResultConfig(res, trace, cfg); err != nil {
			return &Failure{Spec: spec, Config: &configs[i], Err: err}
		}
		if err := CheckConservation(res, trace); err != nil {
			return &Failure{Spec: spec, Config: &configs[i], Err: err}
		}
		// Under the default algorithm without remapping the job-aware and
		// reference allocations coincide, so the runtime model must be a
		// no-op: every ratio 1, every exec the trace runtime.
		if configs[i].Algorithm == core.Default && !configs[i].RankRemap {
			for _, r := range res.Jobs {
				if r.CostRatio != 1 || math.Abs(r.Exec-r.BaseRun) > 1e-9 {
					return &Failure{Spec: spec, Config: &configs[i], Err: fmt.Errorf(
						"default algorithm modified job %d: ratio %v exec %v base %v",
						r.ID, r.CostRatio, r.Exec, r.BaseRun)}
				}
			}
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return err
	}
	if computeOnly {
		if err := checkComputeOnlyAgreement(spec, configs, results); err != nil {
			return err
		}
	}
	if err := checkShiftInvariance(spec, topo, trace, configs, results); err != nil {
		return err
	}
	if err := checkDeterminism(spec, topo, trace, ftrace, configs, results); err != nil {
		return err
	}
	if err := checkZeroFaultIdentity(spec, topo, trace, configs, results); err != nil {
		return err
	}
	if err := checkAnnealPassthroughIdentity(spec, configs, results); err != nil {
		return err
	}
	return nil
}

// checkAnnealPassthroughIdentity asserts the metamorphic property anchoring
// the annealing selector: with a negative budget the search is disabled and
// the selector returns its adaptive seed unchanged, so that cell must
// reproduce the plain core.Adaptive cell bit for bit. Any drift means the
// anneal path perturbs state (or pricing) even when it evaluates nothing.
func checkAnnealPassthroughIdentity(spec TraceSpec, configs []RunConfig, results []*sim.Result) error {
	adaptive, passthrough := -1, -1
	for i := range configs {
		switch configs[i] {
		case (RunConfig{Algorithm: core.Adaptive}):
			adaptive = i
		case (RunConfig{Algorithm: core.Anneal, AnnealBudget: -1}):
			passthrough = i
		}
	}
	if adaptive < 0 || passthrough < 0 {
		return nil
	}
	if results[adaptive].Summary != results[passthrough].Summary {
		return &Failure{Spec: spec, Config: &configs[passthrough], Err: fmt.Errorf(
			"disabled anneal diverges from adaptive: %+v vs %+v",
			results[passthrough].Summary, results[adaptive].Summary)}
	}
	for k := range results[adaptive].Jobs {
		a, b := results[adaptive].Jobs[k], results[passthrough].Jobs[k]
		if a != b {
			return &Failure{Spec: spec, Config: &configs[passthrough], Err: fmt.Errorf(
				"disabled anneal diverges from adaptive: job %d %+v vs %+v", a.ID, b, a)}
		}
	}
	return nil
}

// checkZeroFaultIdentity asserts the metamorphic property anchoring the
// fault subsystem: attaching a zero-failure injector (an empty fault
// trace from the MTBF model) to a base cell must reproduce that cell's
// results bit-identically. Any drift here means fault plumbing leaks into
// the fault-free scheduling path.
func checkZeroFaultIdentity(spec TraceSpec, topo *topology.Topology, trace workload.Trace,
	configs []RunConfig, results []*sim.Result) error {
	for i := range configs {
		if configs[i].Faults {
			continue
		}
		// One representative base cell per run keeps the cost bounded.
		if (configs[i] != RunConfig{Algorithm: core.Adaptive}) {
			continue
		}
		cfg := configs[i].SimConfig(topo)
		cfg.Faults = faults.Model{}.Generate(topo.NumNodes(), math.Inf(1))
		res, err := sim.RunContinuous(cfg, trace)
		if err != nil {
			return &Failure{Spec: spec, Config: &configs[i], Err: fmt.Errorf("zero-fault run: %w", err)}
		}
		if res.Summary != results[i].Summary {
			return &Failure{Spec: spec, Config: &configs[i], Err: fmt.Errorf(
				"zero-failure injector changed summary: %+v vs %+v", res.Summary, results[i].Summary)}
		}
		for k := range res.Jobs {
			if res.Jobs[k] != results[i].Jobs[k] {
				return &Failure{Spec: spec, Config: &configs[i], Err: fmt.Errorf(
					"zero-failure injector changed job %d: %+v vs %+v",
					res.Jobs[k].ID, res.Jobs[k], results[i].Jobs[k])}
			}
		}
		return nil
	}
	return nil
}

// CheckConservation independently re-derives the aggregate quantities from
// the per-job results and checks them against the run's Summary: node-hour
// accounting, makespan, utilization ≤ 1, and the work lower bound on the
// makespan (the machine cannot deliver node-seconds faster than its size).
func CheckConservation(res *sim.Result, trace workload.Trace) error {
	const eps = 1e-6
	nodeHours, makespan, firstSubmit := 0.0, 0.0, math.Inf(1)
	commJobs := 0
	for i, r := range res.Jobs {
		nodeHours += float64(r.Nodes) * r.Exec / 3600
		if r.End > makespan {
			makespan = r.End
		}
		if trace.Jobs[i].Submit < firstSubmit {
			firstSubmit = trace.Jobs[i].Submit
		}
		if r.Comm {
			commJobs++
		}
	}
	makespan /= 3600
	s := res.Summary
	if s.Jobs != len(res.Jobs) {
		return fmt.Errorf("verify: summary counts %d jobs, run has %d", s.Jobs, len(res.Jobs))
	}
	if s.CommJobs != commJobs {
		return fmt.Errorf("verify: summary counts %d comm jobs, run has %d", s.CommJobs, commJobs)
	}
	if math.Abs(s.TotalNodeHours-nodeHours) > eps*math.Max(1, nodeHours) {
		return fmt.Errorf("verify: summary node-hours %v, recomputed %v", s.TotalNodeHours, nodeHours)
	}
	if math.Abs(s.MakespanHours-makespan) > eps*math.Max(1, makespan) {
		return fmt.Errorf("verify: summary makespan %v h, recomputed %v h", s.MakespanHours, makespan)
	}
	if s.TotalWaitHours < -eps || s.AvgWaitHours < -eps {
		return fmt.Errorf("verify: negative wait (%v total, %v avg)", s.TotalWaitHours, s.AvgWaitHours)
	}
	if res.MachineNodes < trace.MachineNodes {
		return fmt.Errorf("verify: result machine %d smaller than trace machine %d",
			res.MachineNodes, trace.MachineNodes)
	}
	if makespan > 0 {
		util := nodeHours / (makespan * float64(res.MachineNodes))
		if math.Abs(res.Utilization-util) > eps*math.Max(1, util) {
			return fmt.Errorf("verify: utilization %v, recomputed %v", res.Utilization, util)
		}
		if util > 1+eps {
			return fmt.Errorf("verify: utilization %v exceeds capacity", util)
		}
		// Work bound: the span actually used (first submit to makespan)
		// must be long enough to deliver the node-hours on this machine.
		span := makespan - firstSubmit/3600
		if nodeHours > span*float64(trace.MachineNodes)*(1+eps) {
			return fmt.Errorf("verify: %v node-hours delivered in a %v h window on %d nodes",
				nodeHours, span, trace.MachineNodes)
		}
	}
	return nil
}

// checkComputeOnlyAgreement asserts that without communication-intensive
// jobs the allocator, cost mode and remapping cannot influence timing:
// every cell sharing (backfill, policy, faults) must produce the identical
// schedule. A cell whose run killed a job is left out: a hard failure kills
// whichever job holds the failed node, so there the allocator chooses the
// victims and legitimately moves the schedule.
func checkComputeOnlyAgreement(spec TraceSpec, configs []RunConfig, results []*sim.Result) error {
	type group struct {
		backfillOff bool
		policy      sim.Policy
		faults      bool
	}
	first := make(map[group]int)
	for i := range configs {
		if results[i].Summary.Requeues > 0 {
			continue
		}
		g := group{configs[i].DisableBackfill, configs[i].Policy, configs[i].Faults}
		ref, ok := first[g]
		if !ok {
			first[g] = i
			continue
		}
		for k := range results[i].Jobs {
			a, b := results[ref].Jobs[k], results[i].Jobs[k]
			if a.Start != b.Start || a.End != b.End {
				return &Failure{Spec: spec, Config: &configs[i], Err: fmt.Errorf(
					"compute-only schedule diverges from %v: job %d runs [%v,%v] vs [%v,%v]",
					configs[ref], a.ID, b.Start, b.End, a.Start, a.End)}
			}
		}
	}
	return nil
}

// shiftDelta is the rigid time shift applied to submit times for the
// metamorphic shift property. Large and non-round so shifted event times
// never collide with runtimes.
const shiftDelta = 100003.5

// checkShiftInvariance replays representative cells on a submit-shifted
// copy of the trace: the schedule must shift rigidly — same order, every
// start and end moved by exactly the delta (within float tolerance).
func checkShiftInvariance(spec TraceSpec, topo *topology.Topology, trace workload.Trace,
	configs []RunConfig, results []*sim.Result) error {
	shifted := Shifted(trace, shiftDelta)
	for i := range configs {
		// Two representatives: the paper's setup and a stressed variant.
		isRep := (configs[i] == RunConfig{Algorithm: core.Adaptive}) ||
			(configs[i] == RunConfig{Algorithm: core.Greedy, DisableBackfill: true, Policy: sim.SJF})
		if !isRep {
			continue
		}
		res, err := sim.RunContinuous(configs[i].SimConfig(topo), shifted)
		if err != nil {
			return &Failure{Spec: spec, Config: &configs[i], Err: fmt.Errorf("shifted run: %w", err)}
		}
		for k := range res.Jobs {
			a, b := results[i].Jobs[k], res.Jobs[k]
			if math.Abs(b.Start-(a.Start+shiftDelta)) > 1e-5 ||
				math.Abs(b.End-(a.End+shiftDelta)) > 1e-5 {
				return &Failure{Spec: spec, Config: &configs[i], Err: fmt.Errorf(
					"shift by %v not rigid: job %d moved [%v,%v] → [%v,%v]",
					shiftDelta, a.ID, a.Start, a.End, b.Start, b.End)}
			}
		}
	}
	return nil
}

// checkDeterminism re-runs one cell and requires bit-identical results.
func checkDeterminism(spec TraceSpec, topo *topology.Topology, trace workload.Trace,
	ftrace faults.Trace, configs []RunConfig, results []*sim.Result) error {
	i := int(spec.Seed%int64(len(configs))+int64(len(configs))) % len(configs)
	res, err := sim.RunContinuous(configs[i].simConfigFaults(topo, ftrace), trace)
	if err != nil {
		return &Failure{Spec: spec, Config: &configs[i], Err: fmt.Errorf("rerun: %w", err)}
	}
	for k := range res.Jobs {
		a, b := results[i].Jobs[k], res.Jobs[k]
		if a != b {
			return &Failure{Spec: spec, Config: &configs[i], Err: fmt.Errorf(
				"non-deterministic rerun: job %d %+v vs %+v", a.ID, a, b)}
		}
	}
	return nil
}

// RunMatrix runs spec's trace over every cell (ConfigsFor order, so fault
// cells are included when the spec injects faults) and returns the
// per-cell summaries — the data the cawsverify CLI reports — or the first
// Failure.
func RunMatrix(spec TraceSpec) ([]metrics.Summary, error) {
	results, err := runMatrixResults(spec, ConfigsFor(spec), 0, false)
	if err != nil {
		return nil, err
	}
	out := make([]metrics.Summary, len(results))
	for i, res := range results {
		out[i] = res.Summary
	}
	return out, nil
}

// runMatrixResults simulates every cell on a bounded worker pool and
// returns the full per-cell results in cell order. withReference runs each
// cell a second time on a reference state, from the same pool: cell i's
// results are then entries 2i (optimized) and 2i+1 (reference).
func runMatrixResults(spec TraceSpec, configs []RunConfig, parallelism int, withReference bool) ([]*sim.Result, error) {
	topo, trace, err := spec.Build()
	if err != nil {
		return nil, &Failure{Spec: spec, Err: err}
	}
	ftrace := spec.BuildFaults(topo, trace)
	per := 1
	if withReference {
		per = 2
	}
	results := make([]*sim.Result, per*len(configs))
	err = sweep.Each(len(results), parallelism, func(k int) error {
		cfg := configs[k/per].simConfigFaults(topo, ftrace)
		cfg.Reference = k%per == 1
		res, err := sim.RunContinuous(cfg, trace)
		if err != nil {
			return &Failure{Spec: spec, Config: &configs[k/per], Err: err}
		}
		results[k] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
