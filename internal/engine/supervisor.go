package engine

import (
	"math"
	"time"

	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/modes"
	"gpm/internal/solver"
)

// SupervisorConfig arms the engine's decision supervisor: a safety state
// machine wrapped around the configured decider that (a) bounds how long a
// decision may take and (b) guarantees every actuated mode vector conforms
// to the budget under the supervisor's own power predictions.
//
// Degradation ladder, tried top to bottom each interval until a rung yields
// a conformant vector:
//
//	rung 0  the configured decider (policy/solver), under the deadline;
//	rung 1  the shared greedy kernel on the supervisor's own matrices;
//	rung 2  the last-known-good vector, refitted to the current budget by
//	        greedy demotion;
//	rung 3  the uniform deepest-mode emergency throttle.
//
// Every rung's vector passes the budget-conformance gate — predicted power
// ≤ budget × (1+ToleranceFrac) — with greedy repair by demotion when it
// fails, covering fault-corrupted budgets and stale telemetry. The
// supervisor predicts power from its own finite-filtered copy of the
// observations, so NaN-poisoned telemetry degrades the decision instead of
// disabling the gate.
type SupervisorConfig struct {
	// Deadline, when positive, is the wall-clock budget per decision: the
	// configured decider runs on a watchdog goroutine and is abandoned
	// mid-solve (falling to rung 1) when the deadline passes. Wall-clock
	// deadlines are inherently nondeterministic; leave Deadline zero when
	// bit-identical reruns matter (a deterministic node budget belongs on
	// the solver itself, via solver.WithDeadline).
	Deadline time.Duration
	// ToleranceFrac is the conformance-gate tolerance (default 0.02,
	// matching the guard's default OvershootFrac).
	ToleranceFrac float64
	// Predictor builds the supervisor's own §5.5 matrices from its
	// finite-filtered last-good samples. Front ends fill it with the same
	// predictor the decider uses; required.
	Predictor core.Predictor
}

// Validate reports configuration errors as *OptionError.
func (c SupervisorConfig) Validate() error {
	switch {
	case c.Deadline < 0:
		return &OptionError{Component: "engine", Field: "Supervisor.Deadline", Value: c.Deadline, Reason: "must be non-negative"}
	case math.IsNaN(c.ToleranceFrac) || math.IsInf(c.ToleranceFrac, 0) || c.ToleranceFrac < 0:
		return &OptionError{Component: "engine", Field: "Supervisor.ToleranceFrac", Value: c.ToleranceFrac, Reason: "must be a finite non-negative fraction"}
	case c.Predictor.Plan.NumModes() == 0:
		return &OptionError{Component: "engine", Field: "Supervisor.Predictor", Value: nil, Reason: "required (front ends fill it with the decider's predictor)"}
	}
	return nil
}

func (c SupervisorConfig) tolerance() float64 {
	if c.ToleranceFrac == 0 {
		return 0.02
	}
	return c.ToleranceFrac
}

// Supervision is the supervisor's account of one decision, polled by the
// engine per interval for counters and DecisionTrace fields.
type Supervision struct {
	// Rung is the degradation-ladder rung that produced the actuated vector.
	Rung int
	// Rejected reports the conformance gate rejected the rung-0 vector;
	// Repaired reports the actuated vector came from greedy demotion repair.
	Rejected bool
	Repaired bool
	// PredPowerW is the supervisor-predicted chip power of the actuated
	// vector (what the gate compared against the budget).
	PredPowerW float64
	// TimedOut reports the watchdog abandoned the configured decider
	// mid-solve; Wedged reports the decider was skipped entirely because a
	// previously abandoned solve was still running.
	TimedOut bool
	Wedged   bool
}

// supervisor implements Decider by wrapping the configured decider with the
// degradation ladder and conformance gate of SupervisorConfig. It is
// constructed by Run (never by callers) and used from the engine loop
// goroutine only; in watchdog mode a single persistent worker goroutine runs
// the inner decider so an abandoned decision can keep draining off-loop.
type supervisor struct {
	cfg     SupervisorConfig
	tol     float64
	inner   Decider
	inj     *fault.Injector
	plan    modes.Plan
	n       int
	deepest modes.Vector

	current  modes.Vector  // the vector actually in force (actuated)
	obs      []core.Sample // finite-filtered last-good observations
	mx       core.Matrices // supervisor-owned §5.5 matrices, rebuilt per decision
	lastGood modes.Vector  // most recent gate-passing actuation
	haveGood bool

	last Supervision

	// Watchdog machinery, nil/unused when cfg.Deadline == 0. The channels
	// are buffered so neither side ever blocks the other permanently: the
	// worker parks a late result in resC and moves on.
	reqC        chan core.Decision
	resC        chan modes.Vector
	timer       *time.Timer
	workSamples []core.Sample // worker-owned copy; written only while idle
	busy        bool          // an abandoned decision is still running
}

var _ Decider = (*supervisor)(nil)

func newSupervisor(cfg SupervisorConfig, inner Decider, inj *fault.Injector, n int) *supervisor {
	s := &supervisor{
		cfg:      cfg,
		tol:      cfg.tolerance(),
		inner:    inner,
		inj:      inj,
		plan:     cfg.Predictor.Plan,
		n:        n,
		current:  modes.Uniform(n, modes.Turbo),
		obs:      make([]core.Sample, n),
		lastGood: make(modes.Vector, n),
	}
	s.deepest = modes.Uniform(n, modes.Mode(s.plan.NumModes()-1))
	if cfg.Deadline > 0 {
		s.reqC = make(chan core.Decision, 1)
		s.resC = make(chan modes.Vector, 1)
		s.workSamples = make([]core.Sample, n)
		s.timer = time.NewTimer(time.Hour)
		if !s.timer.Stop() {
			<-s.timer.C
		}
		go s.worker()
	}
	return s
}

// worker runs abandoned-able decisions off the engine loop. The injected
// decision hang (fault.SolverStall) models the wedged solver itself, so it
// sleeps here — on the worker, where the watchdog can abandon it.
func (s *supervisor) worker() {
	for d := range s.reqC {
		if s.inj != nil {
			if hang := s.inj.DecisionHang(d.Now); hang > 0 {
				time.Sleep(hang)
			}
		}
		s.resC <- s.inner.StepDecision(d)
	}
}

// StepDecision implements Decider: one trip down the degradation ladder.
func (s *supervisor) StepDecision(d core.Decision) modes.Vector {
	s.last = Supervision{}
	s.observe(d.Samples)
	s.cfg.Predictor.MatricesInto(&s.mx, s.current, s.obs)
	budget := d.BudgetW

	// Rung 0: the configured decider, under the deadline.
	var v modes.Vector
	if s.tryDecider(d, &v) {
		pred := s.predPower(v)
		if s.conforms(pred, budget) {
			return s.actuate(v, 0, pred, true)
		}
		s.last.Rejected = true
		if p, ok := s.repair(v, budget); ok {
			s.last.Repaired = true
			s.syncInner(v)
			return s.actuate(v, 0, p, true)
		}
	}

	// Rung 1: the shared greedy kernel on the supervisor's own matrices —
	// conformant by construction whenever the budget admits anything.
	gin := solver.Instance{Plan: s.plan, BudgetW: budget, Power: s.mx.Power, Instr: s.mx.Instr}
	gv, _ := solver.Greedy{}.Solve(gin)
	if pred := s.predPower(gv); s.conforms(pred, budget) {
		s.syncInner(gv)
		return s.actuate(gv, 1, pred, true)
	}

	// Rung 2: the last-known-good vector, refitted to the current budget by
	// greedy demotion (the "rescale" for budgets that moved under us).
	if s.haveGood {
		lk := s.lastGood.Clone()
		if p, ok := s.repair(lk, budget); ok {
			s.syncInner(lk)
			return s.actuate(lk, 2, p, true)
		}
	}

	// Rung 3: uniform deepest-mode emergency throttle — the floor vector is
	// the least power the chip can draw, conformant or not.
	dv := s.deepest.Clone()
	pred := s.predPower(dv)
	s.syncInner(dv)
	return s.actuate(dv, 3, pred, s.conforms(pred, budget))
}

// tryDecider runs the configured decider, synchronously (deterministic;
// wall-boundedness comes from the solver-side cooperative deadline) or under
// the watchdog. It reports whether a rung-0 vector is available.
func (s *supervisor) tryDecider(d core.Decision, out *modes.Vector) bool {
	if s.reqC == nil {
		*out = s.inner.StepDecision(d)
		return true
	}
	if s.busy {
		select {
		case <-s.resC:
			// A previously abandoned decision finally finished. Its vector
			// answers a stale interval — discard it and re-anchor the inner
			// manager to what was actually actuated meanwhile.
			s.busy = false
			s.syncInner(s.current)
		default:
			s.last.Wedged = true
			return false
		}
	}
	// The engine reuses its sample buffer every interval; the worker may
	// outlive this one, so hand it a supervisor-owned copy. The abandoned
	// path may also race the substrate, so the async decider never sees the
	// lookahead oracle.
	copy(s.workSamples, d.Samples)
	d.Samples = s.workSamples
	d.Lookahead = nil
	s.reqC <- d
	s.timer.Reset(s.cfg.Deadline)
	select {
	case v := <-s.resC:
		if !s.timer.Stop() {
			select {
			case <-s.timer.C:
			default:
			}
		}
		*out = v
		return true
	case <-s.timer.C:
		s.busy = true
		s.last.TimedOut = true
		return false
	}
}

// observe folds the interval's samples into the supervisor's trusted view:
// finite, non-negative readings replace the stored ones; garbage (NaN/Inf/
// negative) leaves the last good value in place, so the gate keeps working
// on plausible magnitudes while the telemetry lies.
func (s *supervisor) observe(samples []core.Sample) {
	for c := range samples {
		sm := samples[c]
		s.obs[c].Done = sm.Done
		if finite(sm.PowerW) && sm.PowerW >= 0 && finite(sm.Instr) && sm.Instr >= 0 {
			s.obs[c].PowerW = sm.PowerW
			s.obs[c].Instr = sm.Instr
		}
	}
}

// predPower scores v with the canonical core-order sum over the
// supervisor's matrices.
func (s *supervisor) predPower(v modes.Vector) float64 {
	var p float64
	for c, m := range v {
		p += s.mx.Power[c][m]
	}
	return p
}

// conforms is the budget-conformance gate: predicted power within
// budget × (1+tol), with the same relative epsilon the solvers use.
func (s *supervisor) conforms(pred, budget float64) bool {
	return pred <= budget*(1+s.tol)+1e-9*(1+math.Abs(budget))
}

// repair demotes v in place — one mode step at a time, always the demotion
// losing the least predicted throughput per watt saved (ties to the lowest
// core) — until it conforms. It reports the final predicted power and
// whether repair succeeded; on failure v is left at the demotion frontier
// (no further power-saving step exists).
func (s *supervisor) repair(v modes.Vector, budget float64) (float64, bool) {
	nm := s.plan.NumModes()
	pred := s.predPower(v)
	for iter := 0; iter < s.n*(nm-1); iter++ {
		if s.conforms(pred, budget) {
			return pred, true
		}
		bestC := -1
		var bestRatio float64
		for c := 0; c < s.n; c++ {
			m := v[c]
			if int(m) >= nm-1 {
				continue
			}
			dP := s.mx.Power[c][m] - s.mx.Power[c][m+1] // watts saved
			if !(dP > 0) {                              // rejects NaN rows too
				continue
			}
			ratio := (s.mx.Instr[c][m] - s.mx.Instr[c][m+1]) / dP // throughput lost per watt
			if math.IsNaN(ratio) {
				continue
			}
			if bestC < 0 || ratio < bestRatio {
				bestC, bestRatio = c, ratio
			}
		}
		if bestC < 0 {
			return pred, false
		}
		v[bestC]++
		pred = s.predPower(v) // canonical re-sum: no incremental drift
	}
	return pred, s.conforms(pred, budget)
}

// syncInner re-anchors the inner manager's notion of the current vector to
// what the supervisor actuated, so next interval's predictions normalize
// against the modes that actually ran. Skipped while an abandoned decision
// still owns the inner manager.
func (s *supervisor) syncInner(v modes.Vector) {
	if s.busy {
		return
	}
	if cs, ok := s.inner.(currentSetter); ok {
		cs.SetCurrent(v)
	}
}

// actuate records the ladder outcome and adopts v as the vector in force.
func (s *supervisor) actuate(v modes.Vector, rung int, pred float64, good bool) modes.Vector {
	copy(s.current, v)
	if good {
		copy(s.lastGood, v)
		s.haveGood = true
	}
	s.last.Rung = rung
	s.last.PredPowerW = pred
	return v
}

// Current implements Decider: the vector the supervisor actually actuated.
func (s *supervisor) Current() modes.Vector { return s.current.Clone() }

// GuardStats implements Decider, draining any abandoned decision first so
// the inner manager is quiescent when read.
func (s *supervisor) GuardStats() (core.ResilientStats, bool) {
	s.drain()
	return s.inner.GuardStats()
}

// LastSupervision implements supervisionReporter.
func (s *supervisor) LastSupervision() Supervision { return s.last }

// InEmergency implements emergencyReporter, delegating to the inner decider
// when it is safe to touch (not owned by an abandoned decision).
func (s *supervisor) InEmergency() bool {
	if s.busy {
		return false
	}
	if er, ok := s.inner.(emergencyReporter); ok {
		return er.InEmergency()
	}
	return false
}

// LastCandidate implements candidateReporter under the same ownership rule.
func (s *supervisor) LastCandidate() modes.Vector {
	if s.busy {
		return nil
	}
	if cr, ok := s.inner.(candidateReporter); ok {
		return cr.LastCandidate()
	}
	return nil
}

// Policy implements policyHolder (end-of-run solver-node accounting).
func (s *supervisor) Policy() core.Policy {
	if ph, ok := s.inner.(policyHolder); ok {
		return ph.Policy()
	}
	return nil
}

// drain blocks until an abandoned decision finishes, discards its stale
// result, and re-anchors the inner manager. The wait is bounded by the
// inner decider's own runtime (plus any injected hang).
func (s *supervisor) drain() {
	if s.busy {
		<-s.resC
		s.busy = false
		s.syncInner(s.current)
	}
}

// stop shuts down the watchdog worker; the supervisor must not be stepped
// after. Run defers it.
func (s *supervisor) stop() {
	if s.reqC == nil {
		return
	}
	s.drain()
	close(s.reqC)
	s.reqC = nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
