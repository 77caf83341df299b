// Package core implements the paper's node allocation algorithms (§4):
// the default SLURM topology/tree best-fit selection, the greedy algorithm
// (Algorithm 1), the balanced algorithm (Algorithm 2) and the adaptive
// algorithm (§4.3), plus ablation variants used in the extended benchmarks.
//
// A Selector chooses nodes but does not commit them; callers allocate the
// returned node list on the cluster.State. Returned node lists are in rank
// order: rank r of the job runs on nodes[r]. All selectors are
// deterministic for a given state, and stateless: Place works in a Scratch
// its caller owns.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/costmodel"
	"repro/internal/search"
	"repro/internal/topology"
)

// ErrInsufficientNodes is returned when the cluster does not currently have
// enough free nodes for the request; the job must wait in the queue.
var ErrInsufficientNodes = errors.New("core: insufficient free nodes")

// Request describes one allocation request.
type Request struct {
	Job   cluster.JobID
	Nodes int
	// Class is the job's compute/communication classification, the extra
	// job parameter the paper introduces.
	Class cluster.Class
	// Pattern is the parallel algorithm of the job's dominant collective;
	// the adaptive algorithm costs candidates with it. Ignored by the other
	// selectors. Defaults to RD semantics when the job is compute-intensive.
	Pattern collective.Pattern
}

// Selector is a node-selection policy.
type Selector interface {
	// Name returns the selector's presentation name.
	Name() string
	// Select returns the nodes to allocate, in rank order, without
	// modifying the state (the adaptive selector uses tentative
	// allocations internally but always rolls them back).
	Select(st *cluster.State, req Request) ([]int, error)
}

// placer is what the built-in selectors implement besides Selector: the
// same selection as the free-rank runs it is made of, one per leaf visit,
// with no node named yet, kept in sc. Select is Place in a fresh Scratch,
// listed.
type placer interface {
	Place(st *cluster.State, req Request, sc *Scratch) (cluster.Placement, error)
}

// pricer is a placer that prices its pick on the way (adaptive).
type pricer interface {
	Place(st *cluster.State, req Request, sc *Scratch) (cluster.Placement, Price, error)
}

// Price is the effective-hops cost of req.Pattern on the placement a
// selector returned (Eq. 6, the job counted towards contention), when the
// selector computed it on the way; OK is false when it computed none.
// Pricing is a deterministic function of (state, runs, pattern, mode,
// class), so on the unchanged state Cost is bit for bit what
// costmodel.PlacementCostMode of the placement returns.
type Price struct {
	Cost float64
	OK   bool
}

// Place runs the selector in sc and returns its selection as a placement:
// the built-in selectors' own, any other Selector's node list wrapped, and
// the selection's price if the selector computed one. A built-in
// selector's placement lives in sc until sc's next placement by a selector
// of the same kind (see Scratch); a nil sc places in a fresh one.
func Place(sel Selector, st *cluster.State, req Request, sc *Scratch) (cluster.Placement, Price, error) {
	if sc == nil {
		sc = new(Scratch)
	}
	switch s := sel.(type) {
	case pricer:
		return s.Place(st, req, sc)
	case placer:
		pl, err := s.Place(st, req, sc)
		return pl, Price{}, err
	}
	nodes, err := sel.Select(st, req)
	return cluster.NewPlacement(nodes), Price{}, err
}

// nodesOf adapts a Place result to Select's.
func nodesOf(pl cluster.Placement, err error) ([]int, error) { return pl.Nodes(), err }

// Algorithm enumerates the available selectors.
type Algorithm uint8

const (
	// Default is SLURM's topology/tree + select/linear behaviour: lowest
	// common switch, then best-fit (fewest free nodes first) across leaves.
	Default Algorithm = iota
	// Greedy is Algorithm 1: leaves ordered by communication ratio (Eq. 1).
	Greedy
	// Balanced is Algorithm 2: power-of-two allocation on leaves ordered by
	// free nodes.
	Balanced
	// Adaptive costs the greedy and balanced candidates (Eq. 6) and keeps
	// the cheaper one for communication-intensive jobs (§4.3).
	Adaptive
	// BalancedNoPow2 is an ablation: balanced's leaf order without the
	// power-of-two constraint.
	BalancedNoPow2
	// Anneal refines the adaptive placement with seeded simulated annealing
	// over swap/shift moves (internal/search), spending an explicit
	// evaluated-candidate budget per selection. Never worse than adaptive's
	// placement for the same request; budget and seed come from Options.
	Anneal
)

// Algorithms lists the four algorithms compared in the paper's evaluation.
var Algorithms = []Algorithm{Default, Greedy, Balanced, Adaptive}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Default:
		return "default"
	case Greedy:
		return "greedy"
	case Balanced:
		return "balanced"
	case Adaptive:
		return "adaptive"
	case BalancedNoPow2:
		return "balanced-nopow2"
	case Anneal:
		return "anneal"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// ParseAlgorithm converts a case-insensitive algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "default", "slurm":
		return Default, nil
	case "greedy":
		return Greedy, nil
	case "balanced":
		return Balanced, nil
	case "adaptive":
		return Adaptive, nil
	case "balanced-nopow2", "nopow2":
		return BalancedNoPow2, nil
	case "anneal", "sa":
		return Anneal, nil
	default:
		return 0, fmt.Errorf("core: unknown algorithm %q", s)
	}
}

// New returns the Selector for an Algorithm with default Options.
func New(a Algorithm) (Selector, error) { return NewWith(a, Options{}) }

// NewWith returns the Selector for an Algorithm, threading per-selector
// options (currently only the anneal selector's budget and seed).
func NewWith(a Algorithm, o Options) (Selector, error) {
	switch a {
	case Default:
		return defaultSelector{}, nil
	case Greedy:
		return greedySelector{}, nil
	case Balanced:
		return balancedSelector{pow2: true}, nil
	case Adaptive:
		return adaptiveSelector{}, nil
	case BalancedNoPow2:
		return balancedSelector{pow2: false}, nil
	case Anneal:
		return annealSelector{cfg: search.Config{Budget: o.AnnealBudget}}, nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %d", uint8(a))
	}
}

// MustNew is New but panics on error.
func MustNew(a Algorithm) Selector {
	s, err := New(a)
	if err != nil {
		panic(err)
	}
	return s
}

// findLowestSwitch returns the lowest-level switch whose subtree has at
// least n free nodes (line 2 of Algorithms 1 and 2, and SLURM's
// topology/tree behaviour). Among equal-level candidates it best-fits: the
// switch with the fewest free nodes wins, ties broken by discovery order.
// Topology.Switches is ordered by ascending level, so the first level with
// a candidate is the lowest.
func findLowestSwitch(st *cluster.State, n int) (*topology.Switch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: request for %d nodes", n)
	}
	var best *topology.Switch
	bestFree := 0
	level := -1
	for _, sw := range st.Topology().Switches {
		if best != nil && sw.Level > level {
			break
		}
		free := st.SwitchFree(sw)
		if free < n {
			continue
		}
		if best == nil || free < bestFree {
			best, bestFree, level = sw, free, sw.Level
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: want %d, have %d", ErrInsufficientNodes, n, st.FreeTotal())
	}
	return best, nil
}

// leafOrder pairs a leaf index with the sort keys current when the
// selector ran; sorting a snapshot keeps selectors deterministic even
// though allocation mutates free counts as it walks the order. Only
// greedy's orders read ratio.
type leafOrder struct {
	leaf  int
	free  int
	ratio float64
}

// leafSort names the order a selection visits a switch's leaves in.
type leafSort uint8

const (
	freeAsc       leafSort = iota // ascending free count (best fit), then leaf index
	freeDesc                      // descending free count, then leaf index
	greedyComm                    // cmpGreedyComm
	greedyCompute                 // cmpGreedyCompute
)

// Scratch is the working set of a placement loop, owned by whoever runs
// the loop (the simulator's and the daemon's engines, the annealer's
// search) and handed to every Place: the leaf order and its sort keys, the
// balanced algorithm's pass-one take counts and the free-rank runs chosen
// so far, the pricing scratch, and the run storage of the candidates a
// placement builds, one store per kind of selection (greedy, balanced,
// default). A selection reads no node: it splits the order's free counts
// into runs, and a warm Scratch places and prices with no allocation.
//
// A placement Place returns reads its runs in the Scratch: it is valid
// until the Scratch's next placement by a selector of the same kind, so
// adaptive's two candidates stay valid together. A reference selection
// made beside them, such as Eq. 7's default placement, goes into
// Reference(). Used after that, a placement fails validation, committing
// and pricing with cluster.ErrReusedPlacement. The zero value is ready; a
// Scratch serves one goroutine at a time.
type Scratch struct {
	order []leafOrder
	keys  []uint64 // free-count orders: one packed sort key per leaf
	taken []int
	runs  []uint64 // leaf<<32|first rank per leaf visit, in rank order
	skip  []uint64 // per run: how many allocatable nodes of its leaf precede it
	n     int      // ranks placed so far
	price costmodel.Scratch
	cand  [numKinds]cluster.RunStore
	ref   *Scratch
}

// kind names the store a selection's placement is kept in.
type kind uint8

const (
	greedyKind kind = iota
	balancedKind
	defaultKind
	numKinds
)

// Pricing returns the pricing scratch the placements made in sc are priced
// in, for a caller that prices more of them itself.
func (sc *Scratch) Pricing() *costmodel.Scratch { return &sc.price }

// Reference returns the scratch to place a reference selection in, beside
// a placement made in sc that must stay valid: its own, made on first use.
func (sc *Scratch) Reference() *Scratch {
	if sc.ref == nil {
		sc.ref = new(Scratch)
	}
	return sc.ref
}

// begin opens a selection over a switch of the given number of leaves,
// which visits each leaf at most twice (balanced's two passes).
//
//caws:noalloc
func (sc *Scratch) begin(leaves int) {
	if cap(sc.skip) < 2*leaves {
		sc.runs, sc.skip = make([]uint64, 0, 2*leaves+1), make([]uint64, 0, 2*leaves)
	}
	sc.runs, sc.skip, sc.n = sc.runs[:0], sc.skip[:0], 0
}

// take places the next k ranks on leaf l's allocatable nodes after its first
// skip. Carrying on where the previous run stopped extends it: runs stay maximal.
//
//caws:noalloc
func (sc *Scratch) take(l, skip, k int) {
	if k <= 0 {
		return
	}
	n := len(sc.runs)
	extends := n > 0 && int(sc.runs[n-1]>>32) == l && int(sc.skip[n-1])+sc.n-int(uint32(sc.runs[n-1])) == skip
	if !extends {
		sc.runs = append(sc.runs, uint64(l)<<32|uint64(sc.n))
		sc.skip = append(sc.skip, uint64(skip))
	}
	sc.n += k
}

// placement closes the chosen runs into a free-rank placement bound to st,
// kept in the store of kind k. When pricing mutates the state (a reference
// state is allocated on and released around every price) the nodes are
// listed now, while the runs can still be read.
//
//caws:noalloc
func (sc *Scratch) placement(st *cluster.State, k kind) cluster.Placement {
	sc.runs = append(sc.runs, uint64(sc.n))
	pl := sc.cand[k].Place(st, sc.runs, sc.skip)
	if !costmodel.CandidateCostReadOnly(st) {
		pl.Nodes()
	}
	return pl
}

// snapshotLeaves fills the scratch's leaf-order buffer with every leaf's
// free count and communication ratio; the returned slice is valid until the
// scratch's next selection.
//
//caws:noalloc
func snapshotLeaves(st *cluster.State, leaves []int, sc *Scratch) []leafOrder {
	if cap(sc.order) < len(leaves) {
		sc.order = make([]leafOrder, len(leaves))
	}
	out := sc.order[:len(leaves)]
	for i, l := range leaves {
		out[i] = leafOrder{leaf: l, free: st.LeafFree(l), ratio: st.CommRatio(l)}
	}
	sc.order = out
	return out
}

// sortLeaves returns leaves with their free counts in the order by names;
// the slice is valid until the scratch's next selection. The free-count orders
// sort one packed key per leaf, free<<32|leaf ascending and
// (MaxUint32-free)<<32|leaf descending, which orders exactly as comparing
// (free, leaf) does, with no comparator call and no ratio computed. Ties
// break on the leaf index, not on the position in leaves: a parsed
// topology.conf may list a switch's leaves out of index order. Greedy's
// first key is a float, so its orders sort the snapshot by comparator.
//
//caws:noalloc
func sortLeaves(st *cluster.State, leaves []int, by leafSort, sc *Scratch) []leafOrder {
	switch by {
	case greedyComm:
		order := snapshotLeaves(st, leaves, sc)
		slices.SortFunc(order, cmpGreedyComm)
		return order
	case greedyCompute:
		order := snapshotLeaves(st, leaves, sc)
		slices.SortFunc(order, cmpGreedyCompute)
		return order
	}
	if cap(sc.keys) < len(leaves) {
		sc.keys = make([]uint64, len(leaves))
	}
	if cap(sc.order) < len(leaves) {
		sc.order = make([]leafOrder, len(leaves))
	}
	keys, order := sc.keys[:len(leaves)], sc.order[:len(leaves)]
	var flip uint64 // MaxUint32^free is MaxUint32-free for any 32-bit count
	if by == freeDesc {
		flip = math.MaxUint32
	}
	for i, l := range leaves {
		keys[i] = (flip^uint64(st.LeafFree(l)))<<32 | uint64(l)
	}
	slices.Sort(keys)
	for i, k := range keys {
		order[i] = leafOrder{leaf: int(uint32(k)), free: int(flip ^ k>>32)}
	}
	return order
}

// The comparators below are total strict orders (the unique leaf index is
// always the final key), so the unstable slices.SortFunc yields the same
// permutation a stable sort would.

// cmpGreedyComm orders for communication-intensive greedy selection:
// ascending communication ratio, then descending free, then leaf index.
func cmpGreedyComm(a, b leafOrder) int {
	if a.ratio != b.ratio {
		if a.ratio < b.ratio {
			return -1
		}
		return 1
	}
	if a.free != b.free {
		return b.free - a.free // fewer fragments for comm jobs
	}
	return a.leaf - b.leaf
}

// cmpGreedyCompute is cmpGreedyComm's mirror for compute-intensive jobs:
// descending ratio, then ascending free, then leaf index.
func cmpGreedyCompute(a, b leafOrder) int {
	if a.ratio != b.ratio {
		if a.ratio > b.ratio {
			return -1
		}
		return 1
	}
	if a.free != b.free {
		return a.free - b.free
	}
	return a.leaf - b.leaf
}

// placeInOrder is the selection default, greedy and (for compute-intensive
// jobs) balanced share: find the lowest-level switch with enough free nodes,
// then fill its leaves in the order by names, keeping the placement in the
// store of kind k.
func placeInOrder(st *cluster.State, req Request, sc *Scratch, k kind, name string, by leafSort) (cluster.Placement, error) {
	p, err := findLowestSwitch(st, req.Nodes)
	if err != nil {
		return cluster.Placement{}, err
	}
	sc.begin(len(p.DescLeaves))
	for _, lo := range sortLeaves(st, p.DescLeaves, by, sc) { // a leaf switch lists itself
		sc.take(lo.leaf, 0, min(lo.free, req.Nodes-sc.n))
		if sc.n == req.Nodes {
			return sc.placement(st, k), nil
		}
	}
	return cluster.Placement{}, fmt.Errorf("core: %s: switch %s promised %d nodes, found %d",
		name, p.Name, req.Nodes, sc.n)
}

// ---------------------------------------------------------------- default

type defaultSelector struct{}

func (defaultSelector) Name() string { return "default" }

func (s defaultSelector) Select(st *cluster.State, req Request) ([]int, error) {
	return nodesOf(s.Place(st, req, new(Scratch)))
}

// Place implements SLURM's best-fit topology allocation (§3.1): find the
// lowest-level switch with enough free nodes, then fill leaves in
// increasing order of free node count to reduce fragmentation.
func (defaultSelector) Place(st *cluster.State, req Request, sc *Scratch) (cluster.Placement, error) {
	return placeInOrder(st, req, sc, defaultKind, "default", freeAsc)
}

// ----------------------------------------------------------------- greedy

type greedySelector struct{}

func (greedySelector) Name() string { return "greedy" }

func (s greedySelector) Select(st *cluster.State, req Request) ([]int, error) {
	return nodesOf(s.Place(st, req, new(Scratch)))
}

// Place implements Algorithm 1. Communication-intensive jobs fill leaves
// in increasing order of communication ratio (least contended, most free
// first); compute-intensive jobs fill in decreasing order, preserving the
// good leaves for future communication-intensive jobs.
func (greedySelector) Place(st *cluster.State, req Request, sc *Scratch) (cluster.Placement, error) {
	if req.Class == cluster.CommIntensive {
		return placeInOrder(st, req, sc, greedyKind, "greedy", greedyComm)
	}
	return placeInOrder(st, req, sc, greedyKind, "greedy", greedyCompute)
}

// --------------------------------------------------------------- balanced

type balancedSelector struct {
	// pow2 enables the power-of-two constraint; disabling it is the
	// BalancedNoPow2 ablation.
	pow2 bool
}

func (s balancedSelector) Name() string {
	if s.pow2 {
		return "balanced"
	}
	return "balanced-nopow2"
}

func (s balancedSelector) Select(st *cluster.State, req Request) ([]int, error) {
	return nodesOf(s.Place(st, req, new(Scratch)))
}

// Place implements Algorithm 2. For communication-intensive jobs, leaves
// are visited in decreasing order of free nodes and each receives the
// largest power of two ≤ its free count (alloc_size S carries across
// leaves, only ever shrinking); leftover demand is satisfied in a second,
// reverse-order pass without the power-of-two constraint. For
// compute-intensive jobs, leaves are filled in increasing order of free
// nodes, preserving large free blocks.
func (s balancedSelector) Place(st *cluster.State, req Request, sc *Scratch) (cluster.Placement, error) {
	if req.Class != cluster.CommIntensive {
		return placeInOrder(st, req, sc, balancedKind, "balanced", freeAsc)
	}
	p, err := findLowestSwitch(st, req.Nodes)
	if err != nil {
		return cluster.Placement{}, err
	}
	sc.begin(len(p.DescLeaves))
	order := sortLeaves(st, p.DescLeaves, freeDesc, sc)
	remaining := req.Nodes
	// First pass: powers of two only (lines 12-21 of Algorithm 2).
	if cap(sc.taken) < len(order) {
		sc.taken = make([]int, len(order))
	}
	taken := sc.taken[:len(order)]
	clear(taken)
	allocSize := remaining
	for i, lo := range order {
		if lo.free == 0 {
			continue
		}
		if s.pow2 {
			for allocSize > lo.free {
				allocSize /= 2
			}
		} else {
			allocSize = lo.free
		}
		take := allocSize
		if take > remaining {
			take = remaining
		}
		if take == 0 {
			continue
		}
		sc.take(lo.leaf, 0, take)
		taken[i] = take
		remaining -= take
		if remaining == 0 {
			return sc.placement(st, balancedKind), nil
		}
	}
	// Second pass, reverse sorted order: fill with whatever is left
	// (lines 22-28).
	for i := len(order) - 1; i >= 0 && remaining > 0; i-- {
		free := order[i].free - taken[i]
		if free <= 0 {
			continue
		}
		take := free
		if take > remaining {
			take = remaining
		}
		// Pass one took the leaf's first taken[i] allocatable nodes.
		sc.take(order[i].leaf, taken[i], take)
		remaining -= take
	}
	if remaining != 0 {
		return cluster.Placement{}, fmt.Errorf("core: balanced: switch %s promised %d nodes, short by %d",
			p.Name, req.Nodes, remaining)
	}
	return sc.placement(st, balancedKind), nil
}

// --------------------------------------------------------------- adaptive

type adaptiveSelector struct{}

func (adaptiveSelector) Name() string { return "adaptive" }

func (s adaptiveSelector) Select(st *cluster.State, req Request) ([]int, error) {
	pl, _, err := s.Place(st, req, new(Scratch))
	return pl.Nodes(), err
}

// Place implements §4.3: build both the greedy and the balanced
// candidates, estimate each one's communication cost (Eq. 6, with the
// candidate counted towards contention), and keep the cheaper candidate
// for communication-intensive jobs or the more expensive one for
// compute-intensive jobs (preserving low-cost placements for comm jobs).
// Ties go to the balanced candidate. The winner's cost is returned with it.
//
// Both candidates are validated while the state is still at the generation
// they were selected on (pricing a reference state moves it), then priced one
// after the other on the caller's goroutine. Candidates that place the same
// nodes are priced once: the price is a function of the placement, so the
// tie, and the balanced candidate, wins as if both had been priced. Both
// candidates live in sc, and with a warm sc the whole placement allocates
// nothing.
//
//caws:noalloc
func (adaptiveSelector) Place(st *cluster.State, req Request, sc *Scratch) (cluster.Placement, Price, error) {
	g, err := greedySelector{}.Place(st, req, sc)
	if err != nil {
		return g, Price{}, err
	}
	b, err := balancedSelector{pow2: true}.Place(st, req, sc)
	if err != nil {
		return b, Price{}, err
	}
	errG := sc.price.Validate(st, req.Job, &g)
	errB := sc.price.Validate(st, req.Job, &b)
	var costG, costB float64
	if errG == nil && errB == nil {
		same := g.SameNodes(&b)
		costG, errG = sc.price.PlacementCostMode(st, req.Job, req.Class, &g, req.Pattern, costmodel.ModeEffectiveHops)
		costB = costG
		if !same {
			costB, errB = sc.price.PlacementCostMode(st, req.Job, req.Class, &b, req.Pattern, costmodel.ModeEffectiveHops)
		}
	}
	if errG != nil {
		return cluster.Placement{}, Price{}, fmt.Errorf("core: adaptive: costing greedy candidate: %w", errG)
	}
	if errB != nil {
		return cluster.Placement{}, Price{}, fmt.Errorf("core: adaptive: costing balanced candidate: %w", errB)
	}
	if (req.Class == cluster.CommIntensive && costG < costB) || (req.Class != cluster.CommIntensive && costG > costB) {
		return g, Price{costG, true}, nil
	}
	return b, Price{costB, true}, nil
}

// SelectAndAllocate runs the selector and commits the result on success.
func SelectAndAllocate(sel Selector, st *cluster.State, req Request) ([]int, error) {
	pl, _, err := Place(sel, st, req, nil)
	if err != nil {
		return nil, err
	}
	if pl.Len() != req.Nodes {
		return nil, fmt.Errorf("core: %s returned %d nodes for a %d-node request",
			sel.Name(), pl.Len(), req.Nodes)
	}
	nodes := pl.Nodes() // the commit moves the generation the runs are bound to
	if err := st.AllocatePlacement(req.Job, req.Class, &pl); err != nil {
		return nil, err
	}
	return nodes, nil
}
