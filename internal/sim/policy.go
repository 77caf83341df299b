package sim

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// Policy orders the waiting queue: the engine's sched.Queue is kept in
// Policy.less, so a submitted job, a dependant still waiting on its
// dependency and a job requeued by a node failure each sit where the policy
// serves them. The paper's SLURM setup is FIFO (priority = submit order)
// with EASY backfilling; the other policies are standard batch-scheduling
// baselines for ablation.
type Policy uint8

const (
	// FIFO serves jobs in submission order (SLURM's default priority).
	FIFO Policy = iota
	// SJF serves the shortest job first (by walltime estimate, ties by
	// submission). Classic wait-time optimiser, starvation-prone without
	// the EASY reservation.
	SJF
	// WidestFirst serves the largest node request first; drains big jobs
	// early at the cost of small-job wait.
	WidestFirst
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case SJF:
		return "sjf"
	case WidestFirst:
		return "widest"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// ParsePolicy converts a case-insensitive policy name.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "fifo":
		return FIFO, nil
	case "sjf", "shortest":
		return SJF, nil
	case "widest", "largest":
		return WidestFirst, nil
	default:
		return 0, fmt.Errorf("sim: unknown policy %q", s)
	}
}

// less reports whether job a should run before job b under the policy.
// Submission order (index order, since traces are submit-sorted) is always
// the final tiebreaker, which makes less a strict total order: every policy
// is deterministic and a sorted queue has one place for an arrival.
func (p Policy) less(jobs []workload.Job, a, b int) bool {
	ja, jb := jobs[a], jobs[b]
	switch p {
	case SJF:
		ea, eb := ja.EstimatedRuntime(), jb.EstimatedRuntime()
		if ea != eb {
			return ea < eb
		}
	case WidestFirst:
		if ja.Nodes != jb.Nodes {
			return ja.Nodes > jb.Nodes
		}
	}
	return a < b
}
