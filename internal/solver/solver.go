// Package solver provides scalable budgeted mode-allocation solvers for the
// global power manager's per-interval decision: given the §5.5 Power/BIPS
// Matrices and a chip budget, pick the per-core mode vector that maximizes
// predicted throughput without exceeding the budget.
//
// The paper's MaxBIPS policy (§5.2.3) enumerates all modes^cores vectors,
// which is exact but explodes past ~16 cores. This package factors the
// decision out of internal/core into pluggable solvers behind one interface,
// all proven against the exhaustive kernel:
//
//   - Exhaustive: the brute-force sequential reference enumeration.
//   - BB: exact branch-and-bound seeded with the greedy incumbent and pruned
//     by a fractional (convex-hull water-filling) relaxation upper bound —
//     exact answers at 64+ cores in microseconds to milliseconds.
//   - Hier: a two-level manager that partitions the chip budget across core
//     clusters, solves each cluster independently, and rebalances slack
//     between clusters — the 1000-core scaling story.
//   - Greedy: the marginal-utility heuristic, used standalone and as the
//     incumbent seed for BB and Hier.
//
// Exhaustive and Greedy are the only exhaustive and greedy kernels in the
// module. MaxBIPS picks one exact kernel per instance size — Exhaustive
// below bbMinVectors vectors, lexicographic-tie BB from there up — and
// core.MaxBIPS (and the policies built on it) and core.GreedyMaxBIPS are
// thin wrappers over MaxBIPS and Greedy.
//
// All solvers are deterministic: ties on predicted throughput resolve to
// lower power, then to the lexicographically smallest vector, matching the
// exhaustive kernel.
package solver

import (
	"fmt"
	"time"

	"gpm/internal/modes"
)

// Instance is one budgeted mode-allocation problem: choose one mode per core
// so that the summed predicted power stays within BudgetW and the summed
// predicted instructions are maximal.
type Instance struct {
	Plan    modes.Plan
	BudgetW float64
	// Power[c][m] and Instr[c][m] are the §5.5 matrices: predicted average
	// watts and committed instructions for core c in mode m.
	Power [][]float64
	Instr [][]float64
	// FlatPower/FlatInstr, when non-nil, are row-major contiguous aliases of
	// Power/Instr (length cores×modes, Power[c][m] == FlatPower[c*modes+m]).
	// They are optional and never consulted for scoring — Sessions use them
	// as a fast path for memo comparison and sub-instance slicing. Callers
	// that set them are responsible for the aliasing invariant
	// (core.Matrices.Flat provides it).
	FlatPower []float64
	FlatInstr []float64
}

// NumCores returns the decision width.
func (in Instance) NumCores() int { return len(in.Power) }

// NumModes returns the number of levels per core.
func (in Instance) NumModes() int { return in.Plan.NumModes() }

// VectorPower sums predicted power in core order. All solvers score
// candidate vectors with these canonical-order sums so float associativity
// cannot make two solvers disagree about the same vector.
func (in Instance) VectorPower(v modes.Vector) float64 {
	var p float64
	for c, m := range v {
		p += in.Power[c][m]
	}
	return p
}

// VectorInstr sums predicted instructions in core order.
func (in Instance) VectorInstr(v modes.Vector) float64 {
	var t float64
	for c, m := range v {
		t += in.Instr[c][m]
	}
	return t
}

// deepest returns the all-deepest vector, the shared infeasibility fallback
// (identical to the exhaustive kernel's).
func (in Instance) deepestVector() modes.Vector {
	return modes.Uniform(in.NumCores(), modes.Mode(in.NumModes()-1))
}

// budgetEps is the absolute feasibility slack used for internal pruning and
// cross-solver checks; canonical-order sums at leaves are the authority.
func (in Instance) budgetEps() float64 {
	b := in.BudgetW
	if b < 0 {
		b = -b
	}
	return 1e-9 * (1 + b)
}

// better is the kernel's deterministic improvement rule: higher throughput
// wins, equal throughput prefers lower power. Remaining ties keep the
// earlier vector, so solvers that visit candidates in lexicographic order
// and replace strictly reproduce the exhaustive kernel bit-for-bit.
func better(t, p, bestT, bestP float64) bool {
	return t > bestT || (t == bestT && p < bestP)
}

// Stats describes one Solve call for benchmarking and quality accounting.
type Stats struct {
	// Solver is the registry name of the solver that produced the vector.
	Solver string
	// Nodes counts evaluated states: vectors for enumerative solvers,
	// branch nodes for BB.
	Nodes int64
	// Pruned counts subtrees cut by bounds (BB only).
	Pruned int64
	// Exact reports that the returned vector is a true optimum of the
	// instance (not merely of a relaxation or decomposition).
	Exact bool
	// UpperBoundInstr is the fractional-relaxation throughput upper bound
	// when the solver computed one (BB's root bound).
	UpperBoundInstr float64
	// Elapsed is the wall-clock duration of the Solve call.
	Elapsed time.Duration
	// Aborted reports that the solve was cut short by a Checkpoint (wall
	// deadline, node budget, or external abort). The returned vector is the
	// best incumbent found before the cut — still feasible whenever any
	// feasible vector was seen — and Exact is false.
	Aborted bool
}

// Solver is one budgeted mode-allocation algorithm. Implementations are
// deterministic, stateless, and safe for concurrent reuse across calls.
// Cross-interval state (Hier's Alpha share smoothing, warm hints, scratch
// reuse) lives in a Session, which owns exactly one solver and is NOT safe
// for concurrent use; bare Hier.Solve with Alpha > 0 behaves as Alpha == 0.
type Solver interface {
	Name() string
	Solve(in Instance) (modes.Vector, Stats)
}

// Options parameterizes New.
type Options struct {
	// ClusterSize is Hier's cores-per-cluster (default 8).
	ClusterSize int
	// NodeLimit caps BB's branch nodes; 0 means unlimited. When the cap is
	// hit BB returns its incumbent with Exact=false.
	NodeLimit int64
}

// Validate checks Options for values that would silently misbehave inside
// the solvers (a negative cluster size degenerates Hier, a negative node
// count reads as "unlimited").
// All failures are *OptionError.
func (opt Options) Validate() error {
	if opt.ClusterSize < 0 {
		return &OptionError{Field: "ClusterSize", Value: opt.ClusterSize, Reason: "must be non-negative (0 selects the default)"}
	}
	if opt.NodeLimit < 0 {
		return &OptionError{Field: "NodeLimit", Value: opt.NodeLimit, Reason: "must be non-negative (0 means unlimited)"}
	}
	return nil
}

// OptionError is the typed validation error returned by Options.Validate and
// New, mirroring engine.OptionError: it names the field, the rejected value,
// and what a valid value looks like.
type OptionError struct {
	// Field is the Options field that was rejected.
	Field string
	// Value is the rejected value.
	Value any
	// Reason says what a valid value looks like.
	Reason string
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("solver: option %s = %v: %s", e.Field, e.Value, e.Reason)
}

// Names lists the registry names accepted by New.
func Names() []string { return []string{"exhaustive", "bb", "hier", "greedy"} }

// New builds a solver by registry name. Options are validated first; a
// rejected option returns a *OptionError.
func New(name string, opt Options) (Solver, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	switch name {
	case "exhaustive":
		return &Exhaustive{}, nil
	case "bb":
		return &BB{NodeLimit: opt.NodeLimit}, nil
	case "hier":
		return &Hier{ClusterSize: opt.ClusterSize, Inner: &BB{NodeLimit: opt.NodeLimit}}, nil
	case "greedy":
		return Greedy{}, nil
	default:
		return nil, fmt.Errorf("solver: unknown solver %q (want exhaustive|bb|hier|greedy)", name)
	}
}
