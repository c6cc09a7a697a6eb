// Package engine is the substrate-agnostic global power manager control loop
// — the paper's §2/§5.5 sense → predict → decide → actuate cycle, extracted
// so the trace-based CMP analysis tool (internal/cmpsim) and the cycle-level
// full-CMP simulator (internal/fullsim) run the *same* loop instead of two
// divergent copies.
//
// The engine owns everything substrate-independent: explore/delta-sim
// cadence, the decision middleware chain (budget source → fault-injected
// budget → thermal clamp → fault-injected observation), the §5.1
// synchronized-stall charging with worst-case-endpoint stall power, the
// per-interval sample averaging (including truncated final intervals), the
// thermal integration, and all accounting (energy, overshoot integrals,
// guard interventions) in one Result. A Substrate supplies the simulated
// hardware: bootstrap probe, per-delta advancement split into stall and
// execution, completion reporting, and mode-power estimates for the stall
// endpoints. A Decider supplies the manager — plain or resilient — through
// core.Decision, so no `if guarded` forks survive in the loop.
package engine

import (
	"math"
	"time"

	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/metrics"
	"gpm/internal/modes"
	"gpm/internal/thermal"
	"gpm/internal/workload"
)

// Substrate is the simulated hardware under global power management.
// Implementations are single-run and stateful: the engine advances them
// monotonically in delta-sim steps.
type Substrate interface {
	// NumCores returns the chip width.
	NumCores() int
	// Bootstrap probes each core's behaviour over one explore interval with
	// every core at Turbo and returns the per-core samples the local
	// monitors would report before the first decision. Whether the probe
	// consumes simulated time is substrate-defined (the trace players peek
	// without moving; the cycle-level chip runs a real probe interval).
	Bootstrap() []core.Sample
	// ModePowerW estimates core c's average power in mode m at the core's
	// current program position — the §5.1 worst-case transition endpoints
	// are charged at max(ModePowerW(old), ModePowerW(new)).
	ModePowerW(c int, m modes.Mode) float64
	// DeltaStep advances the live cores by execSec seconds of execution in
	// vector v — the remainder of the delta interval is synchronized stall,
	// which the engine charges separately — and fills energyJ/instr with
	// each core's execution-window energy and committed instructions.
	// Cores with live[c]==false must not advance and report zero.
	DeltaStep(v modes.Vector, execSec float64, live []bool, energyJ, instr []float64)
	// Finished reports that core c's program has completed (§5.1 stops the
	// run at the first completion).
	Finished(c int) bool
	// Lookahead returns the oracle probe (§5.6), or nil if the substrate
	// cannot see the future (the cycle-level chip cannot).
	Lookahead() func(c int, m modes.Mode) (powerW, instr float64)
	// MemBound returns the per-core memory-boundedness ranking, or nil.
	MemBound() []float64
}

// Decider is one global power manager: plain (*core.Manager) or guarded
// (*core.ResilientManager), both satisfy it via core.Decision (NewDecider
// returns either).
type Decider interface {
	// StepDecision performs one explore-boundary decision and returns the
	// next mode vector.
	StepDecision(d core.Decision) modes.Vector
	// Current returns the mode vector currently in force.
	Current() modes.Vector
	// GuardStats reports the guard's intervention counters and whether the
	// decider is guarded at all.
	GuardStats() (core.ResilientStats, bool)
}

// Options configures one engine run. Plan, Decider, DeltaSim,
// DeltasPerExplore, Horizon and Budget (unless Stages is set) are required.
type Options struct {
	// Plan is the DVFS mode plan (transition times, frequency scales).
	Plan modes.Plan
	// Budget returns the planned chip power budget in watts at time t; the
	// default chain's source stage reads it.
	Budget func(t time.Duration) float64
	// Decider is the global manager making explore-boundary decisions.
	Decider Decider
	// DeltaSim is the statistics interval; DeltasPerExplore of them form one
	// explore (decision) interval.
	DeltaSim         time.Duration
	DeltasPerExplore int
	// Horizon bounds the simulated time.
	Horizon time.Duration
	// Thermal, when non-nil, closes the temperature loop.
	Thermal *thermal.Governor
	// Injector, when non-nil, perturbs the observation path.
	Injector *fault.Injector
	// Stages overrides the decision middleware chain; nil selects
	// DefaultChain(Budget, ErrPrefix, Injector, Thermal).
	Stages []Stage
	// Observer, when non-nil, receives one structured DecisionTrace per
	// explore interval and the Result at the end of the run (see
	// internal/obs for JSONL and in-memory implementations). Nil is the
	// zero-overhead path: no trace is constructed and no clock is read.
	Observer Observer
	// ErrPrefix names the front end in engine errors; empty = "engine".
	ErrPrefix string
	// Combo and PolicyName annotate the Result.
	Combo      workload.Combo
	PolicyName string
	// Explore is the explore interval for accounting (recovery latency);
	// zero derives DeltaSim × DeltasPerExplore.
	Explore time.Duration
	// Supervisor, when non-nil, wraps the Decider in the decision
	// supervisor: deadline-bounded solving, the graceful-degradation ladder,
	// and the budget-conformance gate (see SupervisorConfig). Nil — the
	// default — is the exact pre-supervisor decision path, bit for bit.
	Supervisor *SupervisorConfig
}

// Loop is one in-flight engine run, carved out of the monolithic Run so a
// caller can interleave many runs on a shared event clock — the datacenter
// fleet tier (internal/fleet) steps one Loop per chip, updating each chip's
// budget between steps. New builds the loop (bootstrap probe included),
// StepDelta advances exactly one delta-sim interval (running the explore-
// boundary decision first when one is due), and Finish seals the accounting
// and returns the Result. Run composes the three; both paths execute the
// identical operation sequence, bit for bit (pinned by the cmpsim goldens).
//
// A Loop is single-goroutine: callers that step several loops concurrently
// must keep each loop on one worker at a time.
type Loop struct {
	sub     Substrate
	opt     Options
	n       int
	deltaSC float64
	explore time.Duration
	inj     *fault.Injector
	stages  []Stage
	decider Decider
	sup     *supervisor // non-nil when the decision supervisor is armed
	res     *Result

	// Decider facets, resolved once so the loop pays only a nil check.
	emerg  emergencyReporter
	cand   candidateReporter
	supRep supervisionReporter
	obs    Observer

	dt          DecisionTrace // reused across intervals when observed
	stageTraces []StageTrace

	current      modes.Vector
	samples      []core.Sample
	chipMeasured float64 // the independent chip-level (VRM) power sensor
	lookahead    func(c int, m modes.Mode) (powerW, instr float64)
	memBound     []float64

	live          []bool
	execE, execI  []float64
	intervalPower []float64
	intervalInstr []float64
	stallPower    []float64

	// rowSlab backs the per-delta CorePowerW/CoreInstr rows: each delta
	// carves two full-capacity n-length rows off its front, and an empty
	// slab is refilled with one explore interval's rows (slabLen floats), so
	// the one allocation lands on the interval's first delta, the decision
	// step. Rows are never written after they are appended, so they may
	// share a backing array.
	rowSlab []float64
	slabLen int

	now         time.Duration
	done        bool
	degradedRun int // current consecutive rung>0 episode, for LongestDegraded

	// Warm-start plumbing: the loop owns the policy's solver session (when
	// the policy supports one) and decides per interval whether the previous
	// actuated vector is a valid hint. warmed is false on the first decision
	// and after any discontinuity the previous interval (emergency throttle,
	// supervisor degradation); budget jumps and core death/completion are
	// re-checked at decision time against prevBudget/prevDeadDone.
	sessOwner    sessionOwner
	warmed       bool
	prevBudget   float64
	prevDeadDone int

	// Intra-interval cursor: d deltas of the current explore interval have
	// run (0 = a decision is due), simmed of them were actually simulated.
	d         int
	simmed    int
	budget    float64
	stallLeft float64

	closed   bool
	finished bool
}

// New validates the options and builds a steppable loop: the substrate is
// bootstrap-probed and the first decision is pending. Callers must Close the
// loop (Finish does) — Run defers it.
func New(sub Substrate, opt Options) (*Loop, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	n := sub.NumCores()
	explore := opt.explore()
	inj := opt.Injector
	stages := opt.Stages
	if stages == nil {
		stages = DefaultChain(opt.Budget, opt.ErrPrefix, inj, opt.Thermal)
	}

	l := &Loop{
		sub:     sub,
		opt:     opt,
		n:       n,
		deltaSC: opt.DeltaSim.Seconds(),
		explore: explore,
		inj:     inj,
		stages:  stages,
	}

	// The decision supervisor, when armed, sits between the loop and the
	// configured decider; everything downstream (facets included) talks to
	// whichever decider is outermost.
	l.decider = opt.Decider
	if opt.Supervisor != nil {
		l.sup = newSupervisor(*opt.Supervisor, opt.Decider, inj, n)
		l.decider = l.sup
	}

	res := &Result{
		Combo:          opt.Combo,
		Policy:         opt.PolicyName,
		DeltaSim:       opt.DeltaSim,
		FirstCompleted: -1,
		PerCoreInstr:   make([]float64, n),
	}
	res.Obs.StageOverrides = make([]StageOverride, len(stages))
	for i, s := range stages {
		res.Obs.StageOverrides[i].Stage = s.Name()
	}
	// Pre-size the delta-resolution series so steady-state intervals append
	// without reallocating (capped so pathological horizons don't reserve
	// unbounded memory up front).
	est := int(opt.Horizon / opt.DeltaSim)
	if est > 4096 {
		est = 4096
	}
	res.ChipPowerW = make([]float64, 0, est)
	res.BudgetW = make([]float64, 0, est)
	res.CorePowerW = make([][]float64, 0, est)
	res.CoreInstr = make([][]float64, 0, est)
	res.Modes = make([]modes.Vector, 0, est/opt.DeltasPerExplore+1)
	if opt.Thermal != nil {
		res.MaxTempC = make([]float64, 0, est)
	}
	l.res = res
	// A row slab for the whole horizon would save the per-interval refill
	// too, but at 64 cores it is a megabyte-scale object per run: the
	// runtime's scavenger then churns its pages, and supervised decisions
	// miss their wall-clock deadline about twice as often
	// (TestSupervisorStallAcceptance64).
	l.slabLen = 2 * n * opt.DeltasPerExplore

	l.emerg, _ = l.decider.(emergencyReporter)
	l.cand, _ = l.decider.(candidateReporter)
	l.supRep, _ = l.decider.(supervisionReporter)
	l.obs = opt.Observer

	// Adopt the policy's solver session: one loop owns one policy, so the
	// session's cross-interval state (scratch buffers, warm floors, Hier
	// shares) is created here and torn down in Close.
	if ph, ok := l.decider.(policyHolder); ok {
		if so, ok := ph.Policy().(sessionOwner); ok {
			so.EnsureSession()
			l.sessOwner = so
		}
	}

	// Bootstrap sample: the local monitors report each core's behaviour at
	// Turbo before the first decision; cores dead at t=0 report nothing.
	l.current = modes.Uniform(n, modes.Turbo)
	l.samples = sub.Bootstrap()
	for c := range l.samples {
		if inj != nil && inj.CoreDead(c, 0) {
			l.samples[c] = core.Sample{}
		}
		l.chipMeasured += l.samples[c].PowerW
	}

	l.lookahead = sub.Lookahead()
	l.memBound = sub.MemBound()
	l.live = make([]bool, n)
	l.execE = make([]float64, n)
	l.execI = make([]float64, n)
	l.intervalPower = make([]float64, n)
	l.intervalInstr = make([]float64, n)
	l.stallPower = make([]float64, n)
	if l.obs != nil {
		l.stageTraces = make([]StageTrace, 0, len(stages))
	}
	return l, nil
}

// Now returns the loop's simulated time.
func (l *Loop) Now() time.Duration { return l.now }

// Done reports that the loop has reached its horizon or a first program
// completion (§5.1) and will make no further progress.
func (l *Loop) Done() bool { return l.done || l.now >= l.opt.Horizon }

// Result exposes the in-progress accounting: series grow as the loop steps.
// Callers may read it between steps (the fleet tier drains per-delta
// committed-instruction rows this way) but must not mutate it; Finish seals
// and returns the same pointer.
func (l *Loop) Result() *Result { return l.res }

// decide runs the decision middleware chain and one explore-boundary
// decision, arming the interval's stall accounting.
func (l *Loop) decide() error {
	res, obs, n := l.res, l.obs, l.n
	st := Step{Now: l.now, TrueSamples: l.samples, Samples: l.samples, ChipPowerW: l.chipMeasured}
	if obs != nil {
		l.stageTraces = l.stageTraces[:0]
	}
	for i, stage := range l.stages {
		prevB := st.BudgetW
		prevSamples := st.Samples
		var t0 time.Time
		if obs != nil {
			t0 = time.Now()
		}
		if err := stage.Apply(&st); err != nil {
			return err
		}
		// The first stage seeds the budget; later stages that move it,
		// or that swap the observation, overrode something upstream.
		override := i > 0 && (st.BudgetW != prevB || !sameSamples(prevSamples, st.Samples))
		if override {
			res.Obs.StageOverrides[i].Count++
		}
		if obs != nil {
			l.stageTraces = append(l.stageTraces, StageTrace{
				Name:     res.Obs.StageOverrides[i].Stage,
				BudgetW:  st.BudgetW,
				Override: override,
				DurNs:    time.Since(t0).Nanoseconds(),
			})
		}
	}
	l.budget = st.BudgetW
	// Warm-start hint: hand the previous actuated vector to the decider
	// only while the decision context is continuous. A budget step of more
	// than 25% (a spike or brownout) or any change in the dead/finished
	// core population invalidates it — the previous vector is then a poor
	// (or shape-stale) seed, and a discontinuity is exactly when a fresh
	// cold solve is cheapest to afford.
	deadDone := 0
	for c := 0; c < n; c++ {
		if l.sub.Finished(c) || (l.inj != nil && l.inj.CoreDead(c, l.now)) {
			deadDone++
		}
	}
	budgetStep := l.prevBudget != 0 && math.Abs(l.budget-l.prevBudget) > 0.25*math.Abs(l.prevBudget)
	warm := l.warmed && deadDone == l.prevDeadDone && !budgetStep
	l.prevDeadDone = deadDone
	l.prevBudget = l.budget
	var hint modes.Vector
	if warm {
		hint = l.current
		res.Obs.WarmHints++
	}
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	next := l.decider.StepDecision(core.Decision{
		BudgetW:    l.budget,
		ChipPowerW: st.ChipPowerW,
		Samples:    st.Samples,
		Lookahead:  l.lookahead,
		MemBound:   l.memBound,
		Now:        l.now,
		Hint:       hint,
	})
	inEmergency := l.emerg != nil && l.emerg.InEmergency()
	if inEmergency {
		res.Obs.GuardOverrides++
	}
	var sup Supervision
	if l.supRep != nil {
		sup = l.supRep.LastSupervision()
		res.Obs.SupervisorRungs[sup.Rung]++
		if sup.Rejected {
			res.Obs.ConformanceRejects++
		}
		if sup.Repaired {
			res.Obs.ConformanceRepairs++
		}
		if sup.TimedOut {
			res.Obs.DeadlineTimeouts++
		}
		if sup.Wedged {
			res.Obs.WedgedDecisions++
		}
		if sup.Rung > 0 {
			res.Obs.DegradedDecisions++
			l.degradedRun++
			if l.degradedRun > res.Obs.LongestDegraded {
				res.Obs.LongestDegraded = l.degradedRun
			}
		} else {
			l.degradedRun = 0
		}
	}
	// The vector adopted below is a valid warm seed for the next decision
	// unless it did not come from the policy's own solve: the guard's
	// emergency throttle and every supervisor intervention (degraded rung,
	// abandoned or wedged solve) actuate vectors the solver never chose.
	degraded := l.supRep != nil && (sup.Rung > 0 || sup.TimedOut || sup.Wedged)
	l.warmed = !inEmergency && !degraded
	stall := l.opt.Plan.MaxTransitionBetween(l.current, next)
	// Per-core stall power: the worst-case endpoint of the transition
	// (§5.1: execution halts, CPU power is still consumed). Skipped
	// cores are zeroed explicitly: the buffer is reused across
	// intervals, and finished/dead states are monotone, so a stale
	// entry could otherwise never be read — but zero makes that local.
	for c := 0; c < n; c++ {
		if l.sub.Finished(c) || (l.inj != nil && l.inj.CoreDead(c, l.now)) {
			l.stallPower[c] = 0
			continue
		}
		pOld := l.sub.ModePowerW(c, l.current[c])
		pNew := l.sub.ModePowerW(c, next[c])
		if pOld > pNew {
			l.stallPower[c] = pOld
		} else {
			l.stallPower[c] = pNew
		}
	}
	if obs != nil {
		l.dt = DecisionTrace{
			Interval:       res.Obs.Decisions,
			Now:            l.now,
			BudgetW:        l.budget,
			ChipPowerW:     st.ChipPowerW,
			TrueSamples:    st.TrueSamples,
			Samples:        st.Samples,
			Stages:         l.stageTraces,
			Final:          next,
			GuardEmergency: inEmergency,
			Stall:          stall,
			DecideNs:       time.Since(t0).Nanoseconds(),
		}
		if l.supRep != nil {
			l.dt.Supervised = true
			l.dt.SupRung = sup.Rung
			l.dt.SupRejected = sup.Rejected
			l.dt.SupRepaired = sup.Repaired
			l.dt.SupPredPowerW = sup.PredPowerW
			l.dt.SupTimedOut = sup.TimedOut
		}
		if l.cand != nil {
			if raw := l.cand.LastCandidate(); raw != nil && !raw.Equal(next) {
				l.dt.Candidate = raw
			}
		}
		obs.Decision(&l.dt)
		res.Obs.TraceRecords++
	}
	res.Obs.Decisions++
	l.current = next
	res.Modes = append(res.Modes, l.current.Clone())
	res.TransitionStall += stall

	l.stallLeft = stall.Seconds()
	for c := 0; c < n; c++ {
		l.intervalPower[c] = 0
		l.intervalInstr[c] = 0
	}
	l.simmed = 0 // deltas actually simulated; < DeltasPerExplore when truncated
	return nil
}

// delta advances the substrate by one delta-sim interval in the current
// vector, charging any remaining synchronized stall first.
func (l *Loop) delta() {
	res, n, deltaSec := l.res, l.n, l.deltaSC
	l.simmed++
	rowP, rowI := l.row(), l.row()
	var chip float64
	stl := l.stallLeft
	if stl > deltaSec {
		stl = deltaSec
	}
	l.stallLeft -= stl
	exec := deltaSec - stl
	for c := 0; c < n; c++ {
		l.live[c] = !l.sub.Finished(c) && (l.inj == nil || !l.inj.CoreDead(c, l.now))
		l.execE[c], l.execI[c] = 0, 0
	}
	if exec > 0 {
		l.sub.DeltaStep(l.current, exec, l.live, l.execE, l.execI)
	}
	for c := 0; c < n; c++ {
		var e, in float64
		if l.live[c] {
			e = l.stallPower[c] * stl
			if exec > 0 {
				e += l.execE[c]
				in = l.execI[c]
			}
		}
		rowP[c] = e / deltaSec
		rowI[c] = in
		chip += rowP[c]
		l.intervalPower[c] += rowP[c]
		l.intervalInstr[c] += in
		res.PerCoreInstr[c] += in
		res.TotalInstr += in
		res.EnergyJ += e
	}
	if l.opt.Thermal != nil {
		l.opt.Thermal.State().Step(rowP, l.opt.DeltaSim)
		res.MaxTempC = append(res.MaxTempC, l.opt.Thermal.State().MaxTemp())
	}
	res.CorePowerW = append(res.CorePowerW, rowP)
	res.CoreInstr = append(res.CoreInstr, rowI)
	res.ChipPowerW = append(res.ChipPowerW, chip)
	res.BudgetW = append(res.BudgetW, l.budget)
	if chip > l.budget*(1+1e-9) {
		res.OvershootIntervals++
	}
	l.now += l.opt.DeltaSim
	// §5.1 termination: stop when the first benchmark completes.
	for c := 0; c < n; c++ {
		if l.sub.Finished(c) {
			res.FirstCompleted = c
			l.done = true
		}
	}
}

// row carves the next n-length delta row off the loop's slab. The row's
// capacity is clipped to n, so no append can spill into its neighbour.
func (l *Loop) row() []float64 {
	if len(l.rowSlab) < l.n {
		l.rowSlab = make([]float64, l.slabLen)
	}
	r := l.rowSlab[:l.n:l.n]
	l.rowSlab = l.rowSlab[l.n:]
	return r
}

// foldSamples averages the finished explore interval into the samples the
// next decision observes. A truncated interval (horizon hit or first-
// completion exit) must average over the deltas actually simulated, not the
// nominal count.
func (l *Loop) foldSamples() {
	den := float64(l.simmed)
	if den == 0 {
		den = 1
	}
	l.chipMeasured = 0
	for c := 0; c < l.n; c++ {
		l.samples[c] = core.Sample{
			PowerW: l.intervalPower[c] / den,
			Instr:  l.intervalInstr[c],
			Done:   l.sub.Finished(c),
		}
		l.chipMeasured += l.samples[c].PowerW
	}
}

// StepDelta advances the loop by exactly one delta-sim interval, running the
// explore-boundary decision first when one is due. It returns true when the
// loop has reached the horizon or the first program completion; further
// calls are no-ops that keep returning true.
func (l *Loop) StepDelta() (bool, error) {
	if l.Done() {
		return true, nil
	}
	if l.d == 0 {
		if err := l.decide(); err != nil {
			return false, err
		}
	}
	l.delta()
	l.d++
	if l.d >= l.opt.DeltasPerExplore || l.Done() {
		l.foldSamples()
		l.d = 0
	}
	return l.Done(), nil
}

// Close releases the loop's supervisor watchdog, if armed. Idempotent; the
// loop must not be stepped after. Finish calls it.
func (l *Loop) Close() {
	if l.closed {
		return
	}
	l.closed = true
	if l.sup != nil {
		l.sup.stop()
	}
	if l.sessOwner != nil {
		l.sessOwner.CloseSession()
	}
}

// Finish seals the run accounting — elapsed time, final samples, overshoot
// integrals, guard statistics, solver node counts — closes the loop, and
// returns the Result. Idempotent.
func (l *Loop) Finish() *Result {
	if l.finished {
		return l.res
	}
	l.finished = true
	res := l.res
	res.Elapsed = l.now
	res.FinalSamples = append([]core.Sample(nil), l.samples...)
	res.OvershootEnergyWs = metrics.OvershootEnergyWs(res.ChipPowerW, res.BudgetW, l.deltaSC)
	res.WorstOvershootWs = metrics.WorstSustainedOvershootWs(res.ChipPowerW, res.BudgetW, l.deltaSC)
	if st, guarded := l.decider.GuardStats(); guarded {
		res.EmergencyEntries = st.EmergencyEntries
		res.EmergencyIntervals = st.EmergencyIntervals
		res.RecoveryLatency = time.Duration(st.LongestEmergency) * l.explore
		res.DeadCores = st.DeadCores
		res.SanitizedSamples = st.SanitizedSamples + st.ClampedSamples
		res.RescaledIntervals = st.RescaledIntervals
	}
	if ph, ok := l.decider.(policyHolder); ok {
		if nr, ok := ph.Policy().(nodeReporter); ok {
			if nodes, counted := nr.SolveNodes(); counted {
				res.Obs.SolverNodes = nodes
			}
		}
		if sr, ok := ph.Policy().(sessionReporter); ok {
			if ss, on := sr.SessionStats(); on {
				res.Obs.SolverMemoHits = ss.MemoHits
				res.Obs.SolverWarmSolves = ss.WarmFloored
				res.Obs.SolverHintReturns = ss.HintReturns
				res.Obs.SolverPruned = ss.Pruned
			}
		}
	}
	if l.obs != nil {
		l.obs.RunEnd(res)
	}
	l.Close()
	return res
}

// Run executes the global-manager control loop on the substrate until the
// horizon or the first program completion (§5.1).
func Run(sub Substrate, opt Options) (*Result, error) {
	l, err := New(sub, opt)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	for {
		done, err := l.StepDelta()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return l.Finish(), nil
}
