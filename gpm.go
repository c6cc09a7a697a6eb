// Package gpm is the public API of the global CMP power-management library —
// a from-scratch reproduction of Isci, Buyuktosunoglu, Cher, Bose and
// Martonosi, "An Analysis of Efficient Multi-Core Global Power Management
// Policies: Maximizing Performance for a Given Power Budget" (MICRO 2006).
//
// The package re-exports the stable surface of the internal packages:
//
//   - System: configuration + power model + DVFS plan + benchmark profiles,
//   - the global power manager policies (MaxBIPS, Priority, PullHiPushLo,
//     ChipWideDVFS, Oracle, plus extensions),
//   - the trace-based CMP simulator and its results, and
//   - every paper experiment (tables, figures, ablations).
//
// Quickstart:
//
//	sys := gpm.NewSystem(4)                       // 4-core POWER4-class CMP
//	combo, _ := gpm.FindWorkload("4w-ammp-mcf-crafty-art")
//	res, base, _ := sys.RunPolicy(combo, gpm.MaxBIPS(), 0.80)
//	fmt.Println(gpm.Degradation(res.TotalInstr, base.TotalInstr))
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package gpm

import (
	"fmt"
	"io"
	"time"

	"gpm/internal/calib"
	"gpm/internal/cmpsim"
	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/experiment"
	"gpm/internal/fault"
	"gpm/internal/fleet"
	"gpm/internal/metrics"
	"gpm/internal/modes"
	"gpm/internal/obs"
	"gpm/internal/solver"
	"gpm/internal/workload"
)

// System is a fully configured simulation environment: processor model,
// power model, DVFS plan and benchmark profile cache. It is the entry point
// for every experiment and custom run.
type System = experiment.Env

// NewSystem builds the paper's default system for n cores: Table 1 core and
// memory hierarchy, the Turbo/Eff1/Eff2 DVFS plan at 1.300 V nominal, 50 µs
// delta-sim and 500 µs explore intervals.
func NewSystem(n int) *System { return experiment.NewEnv(n) }

// Policy decides per-core mode vectors at every explore interval.
type Policy = core.Policy

// Mode indexes a DVFS level; 0 is always Turbo.
type Mode = modes.Mode

// ModeVector is a per-core mode assignment.
type ModeVector = modes.Vector

// Result is a completed CMP simulation at delta-sim resolution.
type Result = cmpsim.Result

// Workload is a benchmark-to-core assignment (Table 2 combination).
type Workload = workload.Combo

// The paper's policies (§5.2, §5.3, §5.6) and this library's extensions.
func MaxBIPS() Policy       { return core.MaxBIPS{} }
func Priority() Policy      { return core.Priority{} }
func PullHiPushLo() Policy  { return core.PullHiPushLo{} }
func ChipWideDVFS() Policy  { return core.ChipWideDVFS{} }
func Oracle() Policy        { return core.Oracle{} }
func GreedyMaxBIPS() Policy { return core.GreedyMaxBIPS{} }

// MinPower returns the dual-problem policy: minimize power subject to a
// throughput floor expressed as a fraction of all-Turbo throughput.
func MinPower(targetFrac float64) Policy { return core.MinPower{TargetFrac: targetFrac} }

// StableMaxBIPS is MaxBIPS with switching hysteresis: it holds the current
// vector unless the predicted gain exceeds threshold (0 selects the
// default), avoiding transition-stall thrash on jittery workloads.
func StableMaxBIPS(threshold float64) Policy { return core.StableMaxBIPS{Threshold: threshold} }

// FairnessPolicy maximizes the harmonic mean of per-core predicted
// speedups under the budget (the §5.4 weighted-slowdown metric as an
// objective).
func FairnessPolicy() Policy { return core.Fairness{} }

// Hierarchical is the two-level manager of §2's vision: per-cluster
// exhaustive MaxBIPS under greedy-demand budget shares, with one slack
// rebalance pass (clusterSize 0 selects 4 cores per cluster). It runs the
// hier solver with an exhaustive inner kernel and is cold, like SolverPolicy.
func Hierarchical(clusterSize int) Policy { return core.NewHierarchical(clusterSize) }

// FixedModes pins every core to the given vector (the §5.7 static bound).
func FixedModes(v ModeVector) Policy { return core.Fixed{Vector: v} }

// Solver is a budgeted mode-allocation solver (internal/solver): it picks the
// throughput-maximizing feasible mode vector for one decision instance. The
// implementations scale the MaxBIPS objective past the exhaustive kernel's
// ~16-core limit.
type Solver = solver.Solver

// SolverStats is the per-decision certificate a Solver returns alongside its
// vector: node and pruned counts, exactness, the relaxation upper bound,
// abort status, and wall-clock.
type SolverStats = solver.Stats

// SolverOptions tunes SolverByName: hierarchy cluster size, worker and
// branch-and-bound node caps. Zero fields select defaults.
type SolverOptions = solver.Options

// SolverByName resolves an allocation solver: exhaustive (the MaxBIPS
// enumeration, sharded across goroutines on large chips), bb (exact
// branch-and-bound; µs–ms at 64+ cores), hier (two-level clustered; scales
// to 1024 cores), or greedy.
func SolverByName(name string, opt SolverOptions) (Solver, error) { return solver.New(name, opt) }

// SolverNames lists the SolverByName registry.
func SolverNames() []string { return solver.Names() }

// MaxBIPSBB is MaxBIPS backed by the exact branch-and-bound solver.
func MaxBIPSBB() Policy { return core.SolverPolicy{Solver: &solver.BB{}} }

// MaxBIPSHier is MaxBIPS backed by the two-level clustered solver
// (clusterSize 0 selects the default of 8 cores per cluster).
func MaxBIPSHier(clusterSize int) Policy {
	return core.SolverPolicy{Solver: &solver.Hier{ClusterSize: clusterSize}}
}

// SolverPolicy wraps any Solver as a Policy. The returned policy is cold —
// every decision is an independent stateless solve, safe to share across
// concurrent sweep workers. Use SessionSolverPolicy for a warm-started one.
func SolverPolicy(s Solver) Policy { return core.SolverPolicy{Solver: s} }

// SessionSolverPolicy wraps a Solver as a Policy eligible for a warm-start
// SolverSession: when an engine loop adopts it, consecutive decisions reuse
// solver scratch, memoize repeated telemetry, and seed branch-and-bound
// pruning from the previously actuated vector — same vectors, bit-identical
// results, at a fraction of the steady-state latency. The policy belongs to
// exactly one run at a time (the session is stateful); build a fresh one per
// run.
func SessionSolverPolicy(s Solver) Policy { return core.NewSolverPolicy(s) }

// SolverHint carries the previous interval's decision into a warm-started
// solve: the actuated mode vector and (optionally) its predicted throughput.
// A hint never changes the solver's answer — it only accelerates reaching it
// — except for deadline-aborted solves, where a feasible hint is returned
// over a weaker incumbent (the anytime guarantee).
type SolverHint = solver.Hint

// SolverSession is a stateful solving session over one Solver: scratch reuse
// (allocation-free steady state), a bitwise instance memo, and warm-start
// hints across solves. Close it when the run ends. Sessions are not safe for
// concurrent use.
type SolverSession = solver.Session

// SolverSessionStats are a session's cumulative warm-start counters.
type SolverSessionStats = solver.SessionStats

// NewSolverSession opens a warm-start session over s (typically *solver.BB,
// *solver.Hier or solver.Greedy via SolverByName).
func NewSolverSession(s Solver) *SolverSession { return solver.NewSession(s) }

// SolverScalingRow and SolverScalingOptions belong to System.SolverScaling,
// the quality-vs-wall-clock sweep across chip widths (8..1024 cores).
type SolverScalingRow = experiment.SolverScalingRow
type SolverScalingOptions = experiment.SolverScalingOptions

// PolicyByName resolves a policy from its CLI name
// (maxbips|greedy|priority|pullhipushlo|chipwide|oracle|stable|fairness|
// hierarchical|maxbips-bb|maxbips-hier). MaxBIPS and greedy run the
// exhaustive and greedy solver kernels, and hierarchical is Hierarchical(4);
// the maxbips-* names return a fresh session-capable policy (see
// SessionSolverPolicy), so resolve one per run.
func PolicyByName(name string) (Policy, error) { return core.Registry(name) }

// FindWorkload resolves a Table 2 combination by ID, e.g.
// "4w-ammp-mcf-crafty-art".
func FindWorkload(id string) (Workload, error) { return workload.FindCombo(id) }

// Workloads returns the paper's benchmark combinations for a CMP width
// (1, 2, 4 or 8).
func Workloads(cores int) ([]Workload, error) { return workload.Combos(cores) }

// Benchmarks lists the 12 synthetic SPEC CPU2000 models.
func Benchmarks() []string { return workload.Names() }

// FixedBudget returns a constant chip power budget in watts.
func FixedBudget(w float64) func(time.Duration) float64 { return cmpsim.FixedBudget(w) }

// StepBudget switches the budget from w1 to w2 at time t (the Fig 6
// cooling-failure scenario).
func StepBudget(w1, w2 float64, t time.Duration) func(time.Duration) float64 {
	return cmpsim.StepBudget(w1, w2, t)
}

// FaultScenario is a declarative, seed-driven fault-injection plan: sensor
// noise, calibration drift, sample dropout, stuck-at sensors, transient
// budget spikes, permanent core death and thermal-sensor failure. The zero
// value injects nothing; equal seeds replay bit-identically.
type FaultScenario = fault.Scenario

// StuckFault, CoreDeath and BudgetSpike are the discrete fault events of a
// FaultScenario.
type StuckFault = fault.StuckFault
type CoreDeath = fault.CoreDeath
type BudgetSpike = fault.BudgetSpike

// ParseFaultScenario decodes the CLI fault syntax, e.g.
// "seed=7,noise=0.05,stuck=1:0.5:2ms,death=3:8ms".
func ParseFaultScenario(spec string) (FaultScenario, error) { return fault.ParseScenario(spec) }

// GuardConfig tunes the ResilientManager: sample sanitization, the hard-cap
// emergency throttle, and dead-core parking. Zero fields select defaults.
type GuardConfig = core.GuardConfig

// DefaultGuard returns the default guard configuration, spelled out.
func DefaultGuard() GuardConfig { return core.DefaultGuard() }

// RunPolicyResilient is System.RunPolicy with a fault scenario and optional
// guard: nil scenario injects nothing, nil guard uses the plain manager, so
// RunPolicyResilient(combo, p, b, nil, nil) reproduces RunPolicy exactly.
// See also the System method of the same name.
func RunPolicyResilient(sys *System, combo Workload, policy Policy, budgetFrac float64, sc *FaultScenario, guard *GuardConfig) (*Result, *Result, error) {
	return sys.RunPolicyResilient(combo, policy, budgetFrac, sc, guard)
}

// ResiliencePoint and ResilienceOptions belong to System.ResilienceSweep,
// which measures degradation-vs-fault-rate curves for a policy set with and
// without the guard.
type ResiliencePoint = experiment.ResiliencePoint
type ResilienceOptions = experiment.ResilienceOptions

// ResiliencePolicies is the default policy set for ResilienceSweep.
func ResiliencePolicies() []Policy { return experiment.ResiliencePolicies() }

// CrossSubstrateRow and CrossSubstrateResult belong to System.CrossSubstrate,
// which runs the same policies and budget through the engine's shared control
// loop on both substrates — trace players and the cycle-level chip — and
// reports per-policy throughput/power agreement (`gpmsim xcheck`).
type CrossSubstrateRow = experiment.CrossSubstrateRow
type CrossSubstrateResult = experiment.CrossSubstrateResult

// CrossSubstratePolicies is the default policy set for System.CrossSubstrate.
func CrossSubstratePolicies() []Policy { return experiment.CrossSubstratePolicies() }

// --- Decision supervisor & chaos soak (DESIGN.md §11) -----------------------

// SupervisorConfig arms the engine's decision supervisor: deadline-bounded
// solving (a wall-clock watchdog; put a deterministic node budget on the
// solver itself with WithDeadline), a four-rung graceful-degradation ladder
// behind the configured policy, and a budget-conformance gate on every
// actuated mode vector. Off by default; set it via
// cmpsim.Options.Supervisor / fullsim.ManagedOptions.Supervisor.
type SupervisorConfig = engine.SupervisorConfig

// WithDeadline wraps any Solver with cooperative cancellation: the solve
// aborts at the wall deadline or node budget (whichever first; zero disables
// either) and returns its best feasible incumbent with Stats.Aborted set.
func WithDeadline(s Solver, wall time.Duration, nodes int64) Solver {
	return solver.WithDeadline(s, wall, nodes)
}

// ChaosOptions, ChaosRow and ChaosReport belong to System.ChaosSoak, the
// seeded randomized-fault soak harness behind `gpmsim chaos`: supervised
// runs across policies × budgets checked by conformance, finiteness,
// recovery and determinism invariant monitors. ChaosReport.Err() is non-nil
// on any violation.
type ChaosOptions = experiment.ChaosOptions
type ChaosRow = experiment.ChaosRow
type ChaosReport = experiment.ChaosReport

// --- Observability: decision tracing, replay, diff (internal/obs) ----------

// Observer receives one structured record per explore interval from the
// engine's control loop: observed per-core samples, the candidate and final
// mode vectors, per-stage budget overrides and decision latency. A nil
// Observer costs nothing. Set System.Observer (or cmpsim/fullsim options) to
// attach one.
type Observer = engine.Observer

// DecisionTrace is the per-interval record an Observer receives.
type DecisionTrace = engine.DecisionTrace

// ObsCounters is the always-on counter snapshot in every Result: decisions,
// per-stage overrides, guard emergencies, solver nodes and trace records.
type ObsCounters = engine.ObsCounters

// TraceManifest identifies a recorded run: substrate, workload, policy and
// the timing grid a replay must reproduce.
type TraceManifest = obs.Manifest

// Trace is a decoded decision trace: manifest, records, footer.
type Trace = obs.Trace

// TraceWriter streams a run's decision trace as versioned JSONL.
type TraceWriter = obs.Writer

// NewTraceWriter starts a JSONL trace with the given manifest; close it after
// the run to stamp the footer (record count, fingerprints, counters).
func NewTraceWriter(w io.Writer, m *TraceManifest) (*TraceWriter, error) { return obs.NewWriter(w, m) }

// TraceCollector buffers a trace in memory (tests, replay without files).
type TraceCollector = obs.Collector

// NewTraceCollector returns an in-memory Observer; its Trace() is complete
// after the run.
func NewTraceCollector(m *TraceManifest) *TraceCollector { return obs.NewCollector(m) }

// ReadTrace decodes a JSONL decision trace; corrupt input yields a typed
// *obs.DecodeError with a line number, never a panic.
func ReadTrace(path string) (*Trace, error) { return obs.ReadTraceFile(path) }

// TraceDivergence names the first interval, core and field where two traces
// disagree (nil = structurally identical).
type TraceDivergence = obs.Divergence

// DiffTraces structurally compares two decision traces in pipeline order.
func DiffTraces(a, b *Trace) *TraceDivergence { return obs.Diff(a, b) }

// ResultFingerprint hashes every numeric series and counter of a Result
// bit-exactly — the golden-test and replay-verification hash.
func ResultFingerprint(r *Result) uint64 { return obs.ResultFingerprint(r) }

// ReplayResult re-drives a recorded cmpsim run from its trace on a fresh
// substrate: recorded vectors and budgets replace the policy and budget
// stages, and the returned Result is bit-identical to the recorded run
// (verify with ResultFingerprint against the trace footer). Thermal-governed
// runs need the governor re-supplied via cmpsim options instead.
func ReplayResult(sys *System, t *Trace) (*Result, error) {
	if t.Manifest == nil {
		return nil, fmt.Errorf("gpm: trace has no manifest")
	}
	combo, err := workload.FindCombo(t.Manifest.ComboID)
	if err != nil {
		return nil, err
	}
	return cmpsim.Run(sys.Lib, combo, cmpsim.Options{Replay: t})
}

// --- Datacenter fleet tier (internal/fleet, DESIGN.md §12) ------------------

// FleetConfig describes one fleet scenario: N managed chips, seeded open-loop
// client cohorts (Poisson/Gamma/Weibull arrivals, SLO latency classes,
// diurnal modulation), a placement policy with admission control, and a
// facility power cap the arbiter redistributes across chips every epoch.
// Runs are bit-identical for every Workers value.
type FleetConfig = fleet.Config

// FleetCohort is one client population: arrival process, request cost in
// committed instructions, and SLO latency target.
type FleetCohort = fleet.Cohort

// FleetResult is a completed fleet scenario: throughput, per-cohort SLO
// attainment and latency percentiles, Jain fairness over attainment, the
// arbiter's per-epoch grant log, and every chip's engine Result.
type FleetResult = fleet.Result

// FleetCohortStats and FleetEpochStats are the per-cohort and per-epoch rows
// of a FleetResult.
type FleetCohortStats = fleet.CohortStats
type FleetEpochStats = fleet.EpochStats

// RunFleet drives one fleet scenario on the system's profile library.
func RunFleet(sys *System, cfg FleetConfig) (*FleetResult, error) { return fleet.Run(sys.Lib, cfg) }

// FleetFingerprint hashes a FleetResult bit-exactly — serving digest, epoch
// log and per-chip engine fingerprints (the fleet golden-test hash).
func FleetFingerprint(r *FleetResult) uint64 { return fleet.Fingerprint(r) }

// FleetSweepPoint is one facility-cap operating point of System.FleetSweep,
// the throughput/SLO-vs-cap sweep behind `gpmsim fleet`.
type FleetSweepPoint = experiment.FleetSweepPoint

// JainFairness returns Jain's fairness index (Σx)²/(n·Σx²) over non-negative
// allocations: 1 for perfect equality, 1/n for a single winner, 0 for empty
// or invalid input.
func JainFairness(xs []float64) float64 { return metrics.JainFairness(xs) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs with linear
// interpolation, ignoring non-finite samples.
func Percentile(xs []float64, p float64) float64 { return metrics.Percentile(xs, p) }

// LatencyPercentiles bundles p50/p95/p99 (see SummarizeLatency in
// internal/metrics).
type LatencyPercentiles = metrics.LatencyPercentiles

// Degradation returns 1 − policy/baseline committed instructions.
func Degradation(policyInstr, baselineInstr float64) float64 {
	return metrics.Degradation(policyInstr, baselineInstr)
}

// WeightedSlowdown returns the §5.4 fairness metric from per-thread
// speedups.
func WeightedSlowdown(speedups []float64) float64 { return metrics.WeightedSlowdown(speedups) }

// PerThreadSpeedups divides per-core instruction counts against a baseline.
func PerThreadSpeedups(policy, baseline []float64) ([]float64, error) {
	return metrics.PerThreadSpeedups(policy, baseline)
}

// --- Fidelity loop: calibration, counterfactual replay, phase prediction ----
// --- (internal/calib, internal/core.HistoryPredictor, DESIGN.md §14) --------

// CalibrationFit is one predicted-vs-actual series comparison: MAPE, bias
// and Pearson r (RDefined=false when the series is constant).
type CalibrationFit = calib.Fit

// CalibrationScore is one trace's calibration: how well the §5.5 predictor's
// chip-level forecasts tracked what the substrate then actually did.
type CalibrationScore = calib.Score

// CrossSubstrateScore is the interval-by-interval telemetry agreement of two
// traces of the same management problem on different substrates.
type CrossSubstrateScore = calib.CrossScore

// ScoreTrace replays a recorded trace's telemetry through the system's
// predictor and scores predicted-vs-actual per-interval chip power and
// throughput.
func ScoreTrace(sys *System, t *Trace) (*CalibrationScore, error) {
	return calib.ScoreTrace(t, sys.Plan, sys.Predictor())
}

// HistoryConfig tunes the history-table phase predictor (pattern depth,
// delta quantization buckets, bucket step). Zero fields select defaults.
type HistoryConfig = core.HistoryConfig

// DefaultHistory returns the default phase-predictor configuration.
func DefaultHistory() HistoryConfig { return core.DefaultHistory() }

// CounterfactualOptions configures one counterfactual replay of a recorded
// trace (plan, predictor, policy, optional guard/history/oracle solver).
type CounterfactualOptions = calib.ReplayOptions

// CounterfactualResult is one alternate policy's replay: per-interval and
// cumulative regret versus the recorded decisions and the
// perfect-prediction oracle.
type CounterfactualResult = calib.ReplayResult

// IntervalRegret is one interval's recorded/counterfactual/oracle comparison.
type IntervalRegret = calib.IntervalRegret

// CounterfactualReplay re-drives a recorded trace's telemetry through an
// alternate policy. Replaying the recording's own policy and guard yields
// exactly zero regret at every interval.
func CounterfactualReplay(t *Trace, opt CounterfactualOptions) (*CounterfactualResult, error) {
	return calib.Replay(t, opt)
}

// CalibrationResult is System.CalibrationSweep's report: per policy × budget,
// the predictor's fit on both substrates with and without phase prediction.
type CalibrationResult = experiment.CalibrationResult

// RegretResult is System.CounterfactualReplay's report: every alternate
// policy's regret against one recorded run.
type RegretResult = experiment.RegretResult
