package solver

import (
	"math"
	"time"

	"gpm/internal/modes"
)

// Hint carries the previous interval's decision into a warm-started solve:
// the mode vector that was actually actuated, and (optionally, for
// observability) the objective it scored when it was chosen. Sessions
// re-validate the hint against the *current* instance — the vector is only
// used when it is shape-compatible and feasible under the current matrices
// and budget — so a stale or truncated hint degrades to a cold solve, never
// to a wrong answer.
type Hint struct {
	// Vector is the previously actuated mode vector (may be nil: cold).
	Vector modes.Vector
	// Instr is the objective the vector scored when actuated, under the
	// matrices of its own interval. Informational only: the session
	// re-scores the vector on the current instance before using it.
	Instr float64
}

// SessionStats are a Session's cumulative warm-start counters.
type SessionStats struct {
	// Solves counts Solve calls.
	Solves int64
	// MemoHits counts solves answered entirely from the instance memo
	// (telemetry bit-identical to a recently solved interval).
	MemoHits int64
	// WarmFloored counts solves that applied a feasible warm hint as an
	// extra branch-and-bound pruning floor.
	WarmFloored int64
	// HintReturns counts aborted solves whose returned vector was the
	// (strictly better) warm hint rather than the solver's own incumbent.
	HintReturns int64
	// Deprecated: always 0 since the delta path was removed; read by perfbench.
	DeltaCertified int64
	// Nodes and Pruned accumulate the underlying solver's search-node and
	// pruned-subtree counts across solves (memo hits contribute zero), so
	// Nodes here vs a cold baseline is the "nodes saved" measure and
	// Pruned/Nodes the incumbent-prune rate.
	Nodes  int64
	Pruned int64
}

// Session owns the cross-interval state that makes consecutive decisions
// cheap: reusable sort/scratch buffers for every solver, a small memo of
// recently solved instances, Hier's cluster shares and per-cluster inner
// sessions, and the warm-start plumbing that turns the previous decision
// into a BB pruning floor.
//
// Warm-starting is a pure accelerator: for any hint, Solve returns the
// bit-identical vector a cold Solve of the same solver would return on the
// same instance (pinned by TestWarmVsColdBitIdentical). The one exception is
// deliberate and matches the anytime contract: when a deadline/node budget
// aborts the solve mid-search, the session returns the hint vector instead
// of the solver's incumbent iff the hint is feasible on the current instance
// and strictly better — an aborted cold solve has no bit-identity to
// preserve, only a "best feasible incumbent" obligation, which the hint
// satisfies.
//
// The returned vector aliases session-owned buffers and is valid until the
// next Solve call; callers that retain it must copy (core.Manager.sanitize
// already does).
//
// A Session is single-goroutine, like the engine loop that owns it. The
// underlying Solver itself stays stateless and safe for concurrent use by
// other callers.
type Session struct {
	solver     Solver
	base       Solver // solver with any Deadline wrappers unwrapped
	wall       time.Duration
	nodeBudget int64
	cp         *Checkpoint

	// memo is a 2-entry ring of recently solved instances (two entries so
	// Hier's rebalance passes, which alternate share and share+slack budgets
	// per cluster, both hit). Entries hold session-owned copies of the
	// matrices: callers reuse their matrix backing arrays in place between
	// intervals, so stored references would always compare equal.
	memoOK   bool
	memo     [2]memoEntry
	memoNext int

	// lastStable reports that re-solving the last instance (bit-identical
	// matrices, budget and hint) would return the bit-identical vector and
	// leave the session's result-affecting state unchanged: a memo hit
	// trivially, a completed solve otherwise — except a share-smoothing
	// Hier, which additionally needs its share fixpoint (hierState.sharesStable).
	lastStable bool

	gs   greedyScratch
	bb   bbScratch
	hier *hierState

	stats  SessionStats
	closed bool
}

type memoEntry struct {
	ok           bool
	n, m         int
	budget       float64
	power, instr []float64 // row-major n×m copies
	vec          modes.Vector
	stats        Stats
}

// NewSession builds a stateful solving session over s. Deadline wrappers are
// unwrapped and their wall/node budgets applied per Solve (tightest layer
// wins), exactly like Deadline.Solve. The memo is enabled for stateless
// solvers only: BB, Exhaustive, Greedy, and Hier with Alpha == 0 — a
// share-smoothing Hier must re-solve so its share state keeps evolving.
func NewSession(s Solver) *Session {
	ses := &Session{solver: s}
	base := s
	for {
		d, ok := base.(*Deadline)
		if !ok {
			break
		}
		if d.Wall > 0 && (ses.wall == 0 || d.Wall < ses.wall) {
			ses.wall = d.Wall
		}
		if d.Nodes > 0 && (ses.nodeBudget == 0 || d.Nodes < ses.nodeBudget) {
			ses.nodeBudget = d.Nodes
		}
		base = d.Inner
	}
	ses.base = base
	switch b := base.(type) {
	case *Hier:
		ses.hier = &hierState{}
		ses.memoOK = b.Alpha == 0
	case *BB, *Exhaustive, Greedy:
		ses.memoOK = true
	}
	return ses
}

// Stats returns the session's cumulative counters.
func (s *Session) Stats() SessionStats { return s.stats }

// Invalidate drops the session's instance memo and stability flag, forcing
// the next solve down the full path. The memo only ever answers
// bit-identical instances with the vector a full solve would return, so
// invalidating never changes a result — only what the next solve costs.
func (s *Session) Invalidate() {
	for i := range s.memo {
		s.memo[i].ok = false
	}
	s.lastStable = false
}

// ResultStable reports that immediately re-solving the last Solve's instance
// (bit-identical matrices, budget and hint) would return the bit-identical
// vector and leave the session's result-affecting state unchanged. Callers
// with their own change detection (the fleet arbiter) use it to skip solves
// entirely at a fixpoint. False before the first Solve and after Invalidate.
func (s *Session) ResultStable() bool { return s.lastStable }

// Close releases the session's buffers and any per-cluster child sessions.
// The session must not be used after Close. Idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.hier != nil {
		for _, c := range s.hier.inner {
			c.Close()
		}
		s.hier = nil
	}
	for i := range s.memo {
		s.memo[i] = memoEntry{}
	}
	s.gs = greedyScratch{}
	s.bb = bbScratch{}
}

// Solve runs one warm-started solve. Semantics match the wrapped solver's
// Solve (including Deadline budgets when the session wraps one), with the
// hint applied as described on Session.
func (s *Session) Solve(in Instance, h Hint) (modes.Vector, Stats) {
	if s.closed {
		panic("solver: Session used after Close")
	}
	var cp *Checkpoint
	if s.wall > 0 || s.nodeBudget > 0 {
		if s.cp == nil {
			s.cp = &Checkpoint{}
		}
		s.cp.reset(s.wall, s.nodeBudget)
		cp = s.cp
	}
	v, st := s.solveBounded(in, h, cp)
	if cp.Aborted() {
		st.Aborted = true
		st.Exact = false
	}
	return v, st
}

// solveBounded is Solve with an externally owned checkpoint; Hier's
// per-cluster child sessions are driven through it so cluster solves charge
// nodes to their parent's budget.
func (s *Session) solveBounded(in Instance, h Hint, cp *Checkpoint) (modes.Vector, Stats) {
	s.stats.Solves++
	s.lastStable = false
	if s.memoOK {
		if v, st, ok := s.memoGet(in); ok {
			s.stats.MemoHits++
			s.lastStable = true
			return v, st
		}
	}
	warm := usableHint(in, h)
	var v modes.Vector
	var st Stats
	switch b := s.base.(type) {
	case *BB:
		var hint modes.Vector
		if warm {
			hint = h.Vector
		}
		var floored bool
		v, st, floored = b.solve(in, cp, &s.bb, hint)
		if floored {
			s.stats.WarmFloored++
		}
	case *Hier:
		v, st = b.solveWith(in, cp, s.hier, h)
	case Greedy:
		v, st = b.solveWith(in, cp, &s.gs)
	default:
		v, st = SolveBounded(s.base, in, cp)
	}
	// An aborted solve's incumbent can be weaker than the hint (the DFS was
	// cut before revisiting it); the hint is a feasible vector the previous
	// interval actually ran, so it always qualifies as the anytime answer.
	// Strictly-better only: a completed solve is never overridden.
	if st.Aborted && warm {
		if hp := in.VectorPower(h.Vector); hp <= in.BudgetW {
			ht := in.VectorInstr(h.Vector)
			rp := in.VectorPower(v)
			if rp > in.BudgetW || better(ht, hp, in.VectorInstr(v), rp) {
				v = h.Vector
				s.stats.HintReturns++
			}
		}
	}
	s.stats.Nodes += st.Nodes
	s.stats.Pruned += st.Pruned
	if s.memoOK && !st.Aborted {
		s.memoPut(in, v, st)
	}
	s.lastStable = !st.Aborted
	if hs := s.hier; hs != nil && !hs.sharesStable {
		s.lastStable = false
	}
	return v, st
}

// usableHint reports that the hint vector is shape-compatible with the
// instance (right width, every mode in range). Feasibility is checked
// separately at each use site, against the current matrices.
func usableHint(in Instance, h Hint) bool {
	n := in.NumCores()
	if n == 0 || len(h.Vector) != n {
		return false
	}
	m := in.NumModes()
	for _, mo := range h.Vector {
		if mo < 0 || int(mo) >= m {
			return false
		}
	}
	return true
}

// finiteInstance reports that the budget and every matrix entry are finite.
// BB's fast frontier sorts and its warm floor require it: NaNs have no
// defined order under the fast sorts (and the memo never answers such an
// instance: NaN compares unequal).
func finiteInstance(in Instance) bool {
	if !finite(in.BudgetW) {
		return false
	}
	for c := range in.Power {
		for _, p := range in.Power[c] {
			if !finite(p) {
				return false
			}
		}
		for _, q := range in.Instr[c] {
			if !finite(q) {
				return false
			}
		}
	}
	return true
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// memoGet returns the cached result of a bitwise-identical instance. Stats
// are returned with Nodes/Pruned zeroed — a hit does no search — so the
// "nodes saved" accounting stays honest.
func (s *Session) memoGet(in Instance) (modes.Vector, Stats, bool) {
	n, m := in.NumCores(), in.NumModes()
	for i := range s.memo {
		e := &s.memo[i]
		if !e.ok || e.n != n || e.m != m || e.budget != in.BudgetW ||
			!matricesEqual(in, e.power, e.instr, m) {
			continue
		}
		st := e.stats
		st.Nodes, st.Pruned = 0, 0
		st.Elapsed = 0
		return e.vec, st, true
	}
	return nil, Stats{}, false
}

// memoPut stores a completed (non-aborted) solve. Aborted results are never
// cached: node-budget aborts must stay deterministic per solve, and a
// deadline abort is not a function of the instance at all.
func (s *Session) memoPut(in Instance, v modes.Vector, st Stats) {
	n, m := in.NumCores(), in.NumModes()
	e := &s.memo[s.memoNext]
	s.memoNext = (s.memoNext + 1) % len(s.memo)
	e.ok = true
	e.n, e.m, e.budget = n, m, in.BudgetW
	e.power = copyMatrix(e.power[:0], in.Power, in.FlatPower, n*m)
	e.instr = copyMatrix(e.instr[:0], in.Instr, in.FlatInstr, n*m)
	e.vec = append(e.vec[:0], v...)
	e.stats = st
}

// matricesEqual compares the instance's matrices against a stored row-major
// copy, using the caller-provided contiguous aliases when present.
func matricesEqual(in Instance, power, instr []float64, m int) bool {
	if fp, fi := in.FlatPower, in.FlatInstr; len(fp) == len(power) && len(fi) == len(instr) && len(fp) > 0 {
		for i, p := range fp {
			if power[i] != p {
				return false
			}
		}
		for i, q := range fi {
			if instr[i] != q {
				return false
			}
		}
		return true
	}
	for c := range in.Power {
		base := c * m
		for j, p := range in.Power[c] {
			if power[base+j] != p {
				return false
			}
		}
		for j, q := range in.Instr[c] {
			if instr[base+j] != q {
				return false
			}
		}
	}
	return true
}

func copyMatrix(dst []float64, rows [][]float64, flat []float64, nm int) []float64 {
	if len(flat) == nm {
		return append(dst, flat...)
	}
	for _, row := range rows {
		dst = append(dst, row...)
	}
	return dst
}

// resizeFloats returns a zeroed slice of length n, reusing s's backing when
// it is large enough.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeVector(s modes.Vector, n int) modes.Vector {
	if cap(s) < n {
		return make(modes.Vector, n)
	}
	return s[:n]
}

// floatsBitEqual reports element-wise bit equality (NaN-hostile: any NaN
// compares unequal, which is the conservative answer for stability checks).
func floatsBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
