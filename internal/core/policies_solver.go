package core

import (
	"fmt"
	"sync/atomic"

	"gpm/internal/modes"
	"gpm/internal/solver"
)

// SolverPolicy adapts an internal/solver budgeted mode-allocation solver to
// the Policy interface: every explore-interval decision becomes one
// solver.Instance over the §5.5 matrices. This is how MaxBIPS-quality
// decisions reach chip widths the exhaustive kernel cannot — maxbips-bb is
// exact at 64+ cores, maxbips-hier scales to 1024.
//
// A SolverPolicy value is cold: every Decide is an independent stateless
// solve, safe to share across concurrent sweep workers. NewSolverPolicy
// (and so the registry's maxbips-* names) returns a policy that can
// additionally own a solver.Session — warm-started solves with scratch reuse
// across intervals — via EnsureSession; such a policy belongs to exactly one
// engine loop.
type SolverPolicy struct {
	Solver solver.Solver
	// Label overrides the displayed name (default "MaxBIPS[<solver>]").
	Label string
	// NodeCount, when non-nil, accumulates the solver's search-node counts
	// across decisions (observability: engine.Result.Obs.SolverNodes). The
	// pointer is shared by the value-receiver copies Decide runs on, and by
	// every sweep worker the policy value is copied into, so all access is
	// atomic.
	NodeCount *int64

	// session, when non-nil, is the warm-start session Decide routes solves
	// through. Only set on policies built by NewSolverPolicy.
	session *solver.Session
}

// NewSolverPolicy builds a solver policy eligible for a warm-start session.
// The session itself is created by EnsureSession (the engine loop does this
// when it adopts the policy) so that a policy that never reaches an engine
// stays cold.
func NewSolverPolicy(s solver.Solver) *SolverPolicy {
	return &SolverPolicy{Solver: s}
}

// EnsureSession creates the policy's warm-start session if it does not
// exist. The owner must pair it with CloseSession.
func (p *SolverPolicy) EnsureSession() {
	if p.session == nil {
		p.session = solver.NewSession(p.Solver)
	}
}

// CloseSession tears down the warm-start session, if any. Idempotent; the
// policy reverts to cold solves.
func (p *SolverPolicy) CloseSession() {
	if p.session != nil {
		p.session.Close()
		p.session = nil
	}
}

// InvalidateSession drops the session's memoized optimum, delta certificate,
// and stability flag, if a session exists. The engine calls this at workload
// discontinuities (budget steps, core death, emergency throttles, supervisor
// degradation) where the previous interval's state is no longer evidence
// about the next one.
func (p *SolverPolicy) InvalidateSession() {
	if p.session != nil {
		p.session.Invalidate()
	}
}

// SessionStats returns the session's cumulative warm-start counters and
// whether a session is active.
func (p *SolverPolicy) SessionStats() (solver.SessionStats, bool) {
	if p.session == nil {
		return solver.SessionStats{}, false
	}
	return p.session.Stats(), true
}

// Name implements Policy.
func (p SolverPolicy) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return fmt.Sprintf("MaxBIPS[%s]", p.Solver.Name())
}

// Decide implements Policy.
func (p SolverPolicy) Decide(ctx Context) modes.Vector {
	inst := solver.Instance{
		Plan:    ctx.Plan,
		BudgetW: ctx.BudgetW,
		Power:   ctx.Matrices.Power,
		Instr:   ctx.Matrices.Instr,
	}
	if fp, fi, ok := ctx.Matrices.Flat(); ok {
		inst.FlatPower, inst.FlatInstr = fp, fi
	}
	// Generation handshake: when the predictor stamps change tracking onto
	// the matrices, pass it through so a session can gen-check its memo and
	// re-solve only the dirty cores. Untracked matrices (genID 0) leave the
	// instance untracked and the session falls back to content comparison.
	if gens, gen, genID := ctx.Matrices.Generations(); genID != 0 {
		inst.Gens, inst.Gen, inst.GenID = gens, gen, genID
	}
	var v modes.Vector
	var stats solver.Stats
	if p.session != nil {
		v, stats = p.session.Solve(inst, solver.Hint{Vector: ctx.Hint})
	} else {
		v, stats = p.Solver.Solve(inst)
	}
	if p.NodeCount != nil {
		atomic.AddInt64(p.NodeCount, stats.Nodes)
	}
	return v
}

// SolveNodes reports the cumulative search nodes visited across decisions,
// and whether counting is wired (NodeCount non-nil).
func (p SolverPolicy) SolveNodes() (int64, bool) {
	if p.NodeCount == nil {
		return 0, false
	}
	return atomic.LoadInt64(p.NodeCount), true
}
