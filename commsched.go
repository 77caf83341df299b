// Package commsched is a from-scratch Go reproduction of
// "Communication-aware Job Scheduling using SLURM" (Mishra, Agrawal,
// Malakar — ICPP Workshops 2020). It provides:
//
//   - the paper's three node allocation algorithms (greedy, balanced,
//     adaptive) plus SLURM's default topology/tree best-fit baseline;
//   - the effective-hops communication cost model (contention factor,
//     distance, Eq. 2–7);
//   - step-structured models of the parallel algorithms behind MPI
//     collectives (recursive doubling, recursive halving with vector
//     doubling, binomial tree, ring);
//   - a discrete-event cluster simulator with FIFO + EASY backfilling that
//     replays job traces the way the paper's SLURM frontend emulation does;
//   - synthetic Intrepid/Theta/Mira workloads and an SWF reader for real
//     logs;
//   - a flow-level max-min network simulator reproducing the paper's
//     switch-contention motivation experiment (Figure 1).
//
// This package is the public facade: it re-exports the library's types via
// aliases and offers one-call helpers for the common flows. The
// implementation lives in the internal/ packages, one per subsystem (see
// DESIGN.md for the system inventory).
//
// # Quick start
//
//	topo := commsched.ThetaTopology()
//	trace := commsched.SynthesizeTrace(commsched.ThetaPreset, 1000, 42)
//	trace, _ = trace.Tag(0.9, commsched.SingleCollective(commsched.RHVD, 0.7), 1)
//	results, _ := commsched.Compare(topo, trace, commsched.Algorithms)
//	for alg, res := range results {
//		fmt.Printf("%v: %.0f exec hours, %.0f wait hours\n",
//			alg, res.Summary.TotalExecHours, res.Summary.TotalWaitHours)
//	}
package commsched

import (
	"io"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/daemon"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/swf"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Core type aliases. Aliases (not definitions) so values flow freely
// between the facade and the subsystem packages.
type (
	// Topology is a tree/fat-tree interconnect.
	Topology = topology.Topology
	// Switch is one switch of a Topology.
	Switch = topology.Switch
	// TopologySpec parameterises generated trees.
	TopologySpec = topology.Spec

	// ClusterState tracks node allocations and per-leaf contention counters.
	ClusterState = cluster.State
	// JobID identifies a job.
	JobID = cluster.JobID
	// JobClass tags jobs compute- or communication-intensive.
	JobClass = cluster.Class

	// Algorithm selects a node-allocation policy.
	Algorithm = core.Algorithm
	// Selector is a node-selection policy instance.
	Selector = core.Selector
	// Request is one allocation request.
	Request = core.Request

	// Pattern is a collective communication algorithm.
	Pattern = collective.Pattern
	// Mix divides a job's runtime between compute and collective patterns.
	Mix = collective.Mix
	// MixComponent is one communication phase of a Mix.
	MixComponent = collective.Component
	// Step is one stage of a collective schedule.
	Step = collective.Step

	// CostMode selects the communication cost function.
	CostMode = costmodel.Mode

	// Trace is an ordered job log.
	Trace = workload.Trace
	// TraceJob is one job of a Trace.
	TraceJob = workload.Job
	// MachinePreset describes one of the evaluation machines.
	MachinePreset = workload.Preset

	// SimConfig parameterises a continuous simulation run.
	SimConfig = sim.Config
	// QueuePolicy orders the waiting queue (FIFO, SJF, WidestFirst).
	QueuePolicy = sim.Policy
	// SimResult is the outcome of a continuous run.
	SimResult = sim.Result
	// IndividualConfig parameterises individual runs.
	IndividualConfig = sim.IndividualConfig
	// IndividualResult is one job's outcome across algorithms.
	IndividualResult = sim.IndividualResult

	// JobResult is one job's metrics in one run.
	JobResult = metrics.JobResult
	// Summary aggregates a run.
	Summary = metrics.Summary

	// Network is a flow-level network simulator over a Topology.
	Network = netsim.Network
	// NetworkOptions sets link bandwidths.
	NetworkOptions = netsim.Options
	// CollectiveJob is a job repeatedly executing a collective on a Network.
	CollectiveJob = netsim.CollectiveJob
	// JobTiming reports a CollectiveJob's execution.
	JobTiming = netsim.JobTiming

	// SWFLog is a parsed Standard Workload Format file.
	SWFLog = swf.Log
	// SWFJob is one SWF record.
	SWFJob = swf.Job

	// Daemon is the online slurmctld-style scheduling service.
	Daemon = daemon.Daemon
	// DaemonConfig parameterises a Daemon.
	DaemonConfig = daemon.Config
	// DaemonServer serves a Daemon over the JSON-lines TCP protocol.
	DaemonServer = daemon.Server
	// DaemonClient is the wire client for a served Daemon.
	DaemonClient = daemon.Client
	// DaemonRequest is one protocol request.
	DaemonRequest = daemon.Request
	// DaemonJobInfo describes a job in protocol responses.
	DaemonJobInfo = daemon.JobInfo
)

// Job classes.
const (
	ComputeIntensive = cluster.ComputeIntensive
	CommIntensive    = cluster.CommIntensive
)

// Allocation algorithms.
const (
	Default        = core.Default
	Greedy         = core.Greedy
	Balanced       = core.Balanced
	Adaptive       = core.Adaptive
	BalancedNoPow2 = core.BalancedNoPow2
)

// Collective patterns.
const (
	RD       = collective.RD
	RHVD     = collective.RHVD
	Binomial = collective.Binomial
	Ring     = collective.Ring
	Stencil  = collective.Stencil
	Alltoall = collective.Alltoall
)

// Cost modes.
const (
	ModeEffectiveHops = costmodel.ModeEffectiveHops
	ModeDistanceOnly  = costmodel.ModeDistanceOnly
	ModeHopBytes      = costmodel.ModeHopBytes
)

// Queue policies.
const (
	FIFO        = sim.FIFO
	SJF         = sim.SJF
	WidestFirst = sim.WidestFirst
)

// Algorithms lists the four algorithms the paper compares, in order.
var Algorithms = core.Algorithms

// Patterns lists the paper's evaluated collective patterns.
var Patterns = collective.Patterns

// Machine presets for the evaluation workloads.
var (
	IntrepidPreset = workload.Intrepid
	ThetaPreset    = workload.Theta
	MiraPreset     = workload.Mira
)

// ExperimentSets are the §6.2 compute/communication mixes A–E.
var ExperimentSets = collective.ExperimentSets

// ParseAlgorithm converts an algorithm name ("default", "greedy",
// "balanced", "adaptive").
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// ParsePattern converts a pattern name ("rd", "rhvd", "binomial", "ring").
func ParsePattern(s string) (Pattern, error) { return collective.ParsePattern(s) }

// ParseCostMode converts a cost mode name.
func ParseCostMode(s string) (CostMode, error) { return costmodel.ParseMode(s) }

// ParseQueuePolicy converts a queue policy name ("fifo", "sjf", "widest").
func ParseQueuePolicy(s string) (QueuePolicy, error) { return sim.ParsePolicy(s) }

// NewSelector builds the Selector for an Algorithm.
func NewSelector(a Algorithm) (Selector, error) { return core.New(a) }

// NewCluster returns an empty allocation state over the topology.
func NewCluster(topo *Topology) *ClusterState { return cluster.New(topo) }

// LoadTopology parses a SLURM topology.conf file from disk.
func LoadTopology(path string) (*Topology, error) { return topology.LoadConfig(path) }

// ParseTopology parses topology.conf content from a reader.
func ParseTopology(r io.Reader) (*Topology, error) { return topology.ParseConfig(r) }

// GenerateTopology builds a regular tree from a spec.
func GenerateTopology(spec TopologySpec) (*Topology, error) { return topology.Generate(spec) }

// The evaluation topologies.
func ThetaTopology() *Topology        { return topology.Theta() }
func CoriTopology() *Topology         { return topology.Cori() }
func IntrepidTopology() *Topology     { return topology.Intrepid() }
func MiraTopology() *Topology         { return topology.Mira() }
func PaperExampleTopology() *Topology { return topology.PaperExample() }
func DepartmentalTopology() *Topology { return topology.Departmental() }

// SynthesizeTrace generates a seeded trace matching a machine preset.
func SynthesizeTrace(p MachinePreset, jobs int, seed int64) Trace {
	return p.Synthesize(jobs, seed)
}

// SingleCollective builds a Mix spending commFrac of runtime in one
// pattern.
func SingleCollective(p Pattern, commFrac float64) Mix {
	return collective.SinglePattern(p, commFrac)
}

// LoadSWF reads a Standard Workload Format log from disk.
func LoadSWF(path string) (*SWFLog, error) { return swf.Load(path) }

// ParseSWF reads a Standard Workload Format log from a reader.
func ParseSWF(r io.Reader) (*SWFLog, error) { return swf.Read(r) }

// TraceFromSWF converts an SWF log into a Trace (see workload.FromSWF).
func TraceFromSWF(log *SWFLog, name string, machineNodes, maxJobs int) Trace {
	return workload.FromSWF(log, name, machineNodes, maxJobs)
}

// Run replays the trace under one algorithm (continuous run).
func Run(cfg SimConfig, trace Trace) (*SimResult, error) {
	return sim.RunContinuous(cfg, trace)
}

// Compare replays the trace under each algorithm from identical initial
// conditions and returns the per-algorithm results.
func Compare(topo *Topology, trace Trace, algs []Algorithm) (map[Algorithm]*SimResult, error) {
	out := make(map[Algorithm]*SimResult, len(algs))
	for _, a := range algs {
		res, err := sim.RunContinuous(sim.Config{Topology: topo, Algorithm: a}, trace)
		if err != nil {
			return nil, err
		}
		out[a] = res
	}
	return out, nil
}

// RunIndividual evaluates the selected jobs one at a time from an identical
// partially occupied cluster state under each algorithm (the paper's
// individual runs, §6.3).
func RunIndividual(cfg IndividualConfig, trace Trace, jobIdx []int, algs []Algorithm) ([]IndividualResult, error) {
	return sim.RunIndividual(cfg, trace, jobIdx, algs)
}

// ValidateResult independently audits a continuous run against its trace:
// per-job time consistency, dependency ordering, and a sweep-line check
// that the machine was never oversubscribed.
func ValidateResult(res *SimResult, trace Trace) error {
	return sim.ValidateResult(res, trace)
}

// ValidateResultConfig is ValidateResult plus configuration-aware audits:
// queue-policy ordering with backfilling disabled, and EASY backfill
// legality with it enabled.
func ValidateResultConfig(res *SimResult, trace Trace, cfg SimConfig) error {
	return sim.ValidateResultConfig(res, trace, cfg)
}

// RunValidated is Run followed by ValidateResultConfig on the result.
func RunValidated(cfg SimConfig, trace Trace) (*SimResult, error) {
	return sim.RunContinuousValidated(cfg, trace)
}

// NewDaemon starts an online scheduling daemon (stop it with Close).
func NewDaemon(cfg DaemonConfig) (*Daemon, error) { return daemon.New(cfg) }

// NewDaemonServer wraps a daemon for serving over TCP.
func NewDaemonServer(d *Daemon) *DaemonServer { return daemon.NewServer(d) }

// DialDaemon connects a wire client to a served daemon.
func DialDaemon(addr string) (*DaemonClient, error) { return daemon.Dial(addr) }

// NewNetwork builds a flow-level network simulator over the topology.
func NewNetwork(topo *Topology, opts NetworkOptions) *Network {
	return netsim.New(topo, opts)
}

// Contention returns the paper's contention factor C(i,j) (Eq. 2–3) for
// two nodes under the current cluster state.
func Contention(st *ClusterState, i, j int) float64 { return costmodel.Contention(st, i, j) }

// EffectiveHops returns Hops(i,j) = d(i,j)·(1+C(i,j)) (Eq. 5).
func EffectiveHops(st *ClusterState, i, j int) float64 { return costmodel.Hops(st, i, j) }

// AllocationCost evaluates Eq. 6 for a prospective placement: the job is
// tentatively allocated, costed with the pattern's schedule, and rolled
// back.
func AllocationCost(st *ClusterState, job JobID, class JobClass, nodes []int, p Pattern) (float64, error) {
	return costmodel.CandidateCostMode(st, job, class, nodes, p, costmodel.ModeEffectiveHops)
}

// ImprovementPct returns the percentage improvement of value over base
// (positive = better), as reported in the paper's tables.
func ImprovementPct(base, value float64) float64 { return metrics.ImprovementPct(base, value) }

// Pearson returns the correlation coefficient used in the Figure 1 study.
func Pearson(x, y []float64) float64 { return metrics.Pearson(x, y) }
