// Package collective models the step structure of the parallel algorithms
// underlying MPI collectives (§3.3 of the paper): recursive
// doubling/halving (RD), recursive halving with vector doubling (RHVD) and
// binomial tree, plus ring as the future-work extension named in §7.
//
// A schedule is a sequence of steps; each step is a set of communicating
// rank pairs and a relative message size. The paper's cost model (Eq. 6)
// charges each step the maximum effective hops over its pairs, so the exact
// step structure — not a flattened communication matrix — is what the
// allocation algorithms optimise for.
package collective

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Pattern identifies a collective communication algorithm.
type Pattern uint8

const (
	// RD is recursive doubling/halving, used by MPI_Allreduce and the
	// reduce-scatter phases of several collectives. Partner distance doubles
	// every step; message size stays constant.
	RD Pattern = iota
	// RHVD is recursive halving with vector doubling, used by
	// MPI_Allgather: partner distance halves while the exchanged vector
	// doubles, so later (or earlier, depending on orientation) steps move
	// much more data. The paper notes RHVD has the highest total parallel
	// communication volume.
	RHVD
	// Binomial is the binomial-tree algorithm used by MPI_Bcast, MPI_Reduce
	// and MPI_Gather: step k connects 2^k new ranks.
	Binomial
	// Ring is the ring algorithm (future work in §7): P-1 steps of
	// neighbour exchange.
	Ring
)

// Patterns lists the patterns evaluated in the paper, in presentation order.
var Patterns = []Pattern{RD, RHVD, Binomial}

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case RD:
		return "RD"
	case RHVD:
		return "RHVD"
	case Binomial:
		return "Binomial"
	case Ring:
		return "Ring"
	case Stencil:
		return "Stencil"
	case Alltoall:
		return "Alltoall"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// ParsePattern converts a case-insensitive pattern name to a Pattern. An
// ASCII name is lowered in a buffer on the stack, so a valid one allocates
// nothing; any other is lowered by strings.ToLower, which may map it onto an
// ASCII name.
func ParsePattern(s string) (Pattern, error) {
	var buf [len("recursive-halving-vector-doubling")]byte // the longest name
	name, t := buf[:0], strings.TrimSpace(s)
	for i := 0; i < len(t); i++ {
		c := t[i]
		if c >= utf8.RuneSelf || len(name) == len(buf) {
			name = []byte(strings.ToLower(t))
			break
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		name = append(name, c)
	}
	switch string(name) {
	case "rd", "recursive-doubling", "recursivedoubling":
		return RD, nil
	case "rhvd", "recursive-halving-vector-doubling":
		return RHVD, nil
	case "binomial", "binomial-tree", "btree":
		return Binomial, nil
	case "ring":
		return Ring, nil
	case "stencil", "stencil2d":
		return Stencil, nil
	case "alltoall", "a2a", "pairwise":
		return Alltoall, nil
	default:
		return 0, fmt.Errorf("collective: unknown pattern %q", s)
	}
}

// Pair is an unordered pair of communicating ranks, stored with A < B.
type Pair struct{ A, B int }

// Step is one stage of a collective schedule.
type Step struct {
	// Pairs are the rank pairs exchanging messages concurrently in this
	// step.
	Pairs []Pair
	// MsgSize is the per-message size of this step relative to the
	// collective's base message size (1 = base). Vector doubling doubles it
	// every step.
	MsgSize float64
}

// Schedule returns the step schedule for the pattern over `ranks`
// participants. ranks must be >= 1; a single rank yields an empty schedule
// (no communication). Non-power-of-two rank counts are handled the way
// MPICH does for recursive algorithms: the first r = ranks - 2^⌊log2 ranks⌋
// pairs fold into their neighbours in a preliminary step, the power-of-two
// algorithm runs over the 2^⌊log2 ranks⌋ surviving ranks, and a final step
// unfolds the result.
func (p Pattern) Schedule(ranks int) ([]Step, error) {
	blocks, steps, err := p.generate(ranks)
	if blocks != nil {
		steps = Expand(blocks)
	}
	return steps, err
}

// generate builds the schedule in the form the pattern's generator has:
// closed-form blocks for RD, RHVD, Binomial and Ring, pair lists for the
// patterns with no such regularity.
func (p Pattern) generate(ranks int) ([]BlockStep, []Step, error) {
	if ranks < 1 {
		return nil, nil, fmt.Errorf("collective: %v: ranks must be >= 1, got %d", p, ranks)
	}
	if ranks == 1 {
		return nil, nil, nil
	}
	switch p {
	case RD, RHVD:
		return recursiveBlocks(ranks, p == RHVD), nil, nil
	case Binomial:
		return binomialBlocks(ranks), nil, nil
	case Ring:
		return ringBlocks(ranks), nil, nil
	case Stencil:
		return nil, stencilSchedule(ranks), nil
	case Alltoall:
		return nil, alltoallSchedule(ranks), nil
	default:
		return nil, nil, fmt.Errorf("collective: unknown pattern %d", uint8(p))
	}
}

// MustSchedule is Schedule but panics on error.
func (p Pattern) MustSchedule(ranks int) []Step {
	s, err := p.Schedule(ranks)
	if err != nil {
		panic(err)
	}
	return s
}

// TotalVolume returns the sum over steps of len(Pairs) * MsgSize, i.e. the
// total relative bytes moved. RHVD's volume exceeds RD's for the same rank
// count, which is why the paper sees larger gains for RHVD.
func TotalVolume(steps []Step) float64 {
	v := 0.0
	for _, st := range steps {
		v += float64(len(st.Pairs)) * st.MsgSize
	}
	return v
}
