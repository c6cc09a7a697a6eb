package calib

import (
	"fmt"
	"time"

	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/modes"
	"gpm/internal/obs"
	"gpm/internal/solver"
)

// ReplayOptions configures one counterfactual replay of a recorded trace.
type ReplayOptions struct {
	// Plan is the DVFS mode plan the trace was recorded under.
	Plan modes.Plan
	// Predictor is the recording run's analytic predictor configuration. The
	// counterfactual manager predicts with it, and its §5.5 projection
	// (power scale law, transition derating) is what maps the recorded true
	// telemetry onto each lane's counterfactual vector when outcomes are
	// scored.
	Predictor core.Predictor
	// Policy is the counterfactual policy deciding on the recorded
	// telemetry. Replaying the recorded policy itself must yield exactly
	// zero regret versus the recorded lane at every interval (the identity
	// the package's tests pin).
	Policy core.Policy
	// Guard arms the resilient manager around Policy, mirroring
	// cmpsim.Options.Guard. Replays of guarded recordings must pass the
	// recording's guard config for the identity to hold.
	Guard *core.GuardConfig
	// History wraps the counterfactual predictor in a history-table phase
	// predictor (fresh per replay), mirroring cmpsim.Options.History.
	History *core.HistoryConfig
	// Oracle is the lookahead solver; nil selects the exact branch-and-bound
	// solver. Per interval it maximizes instructions subject to the recorded
	// budget over the interval's *realized* telemetry — prediction error
	// removed, which is exactly the §5.6 oracle the paper measures MaxBIPS
	// against.
	Oracle solver.Solver
	// MemBound is the per-core memory-boundedness ranking for policies that
	// consult it (§5.2.2); may be nil.
	MemBound []float64
}

// IntervalRegret is one interval's three-lane comparison. All lanes are
// scored on the interval's realized true telemetry, projected onto each
// lane's vector by the §5.5 model; Vs* follow the convention "positive = the
// counterfactual policy did worse".
type IntervalRegret struct {
	Interval int     `json:"i"`
	NowNs    int64   `json:"now_ns"`
	BudgetW  float64 `json:"budget_w"`
	// Per-lane realized committed instructions and chip power for the
	// vector each lane chose this interval.
	RecordedInstr  float64 `json:"rec_instr"`
	PolicyInstr    float64 `json:"pol_instr"`
	OracleInstr    float64 `json:"orc_instr"`
	RecordedPowerW float64 `json:"rec_w"`
	PolicyPowerW   float64 `json:"pol_w"`
	OraclePowerW   float64 `json:"orc_w"`
	// VsRecorded is RecordedInstr − PolicyInstr; VsOracle is
	// OracleInstr − PolicyInstr.
	VsRecorded float64 `json:"vs_recorded"`
	VsOracle   float64 `json:"vs_oracle"`
	// Matched reports the counterfactual vector equalled the recorded one.
	Matched bool `json:"matched,omitempty"`
}

// ReplayResult is one counterfactual policy's full replay.
type ReplayResult struct {
	// Policy is the counterfactual lane's display name; RecordedPolicy names
	// the lane it is measured against.
	Policy         string `json:"policy"`
	RecordedPolicy string `json:"recorded_policy"`
	// Intervals is the per-interval regret series: one entry per decision
	// whose outcome the trace recorded (records − 1; the final decision's
	// interval was never observed).
	Intervals []IntervalRegret `json:"intervals"`
	// Cumulative regrets over the whole trace.
	CumVsRecorded float64 `json:"cum_vs_recorded"`
	CumVsOracle   float64 `json:"cum_vs_oracle"`
	// RecordedVsOracle is Σ(OracleInstr − RecordedInstr): how many
	// instructions the *recorded* decisions left on the table versus the
	// perfect-prediction oracle — the prediction-error gap the paper
	// attributes MaxBIPS's oracle shortfall to.
	RecordedVsOracle float64 `json:"recorded_vs_oracle"`
	// Matches counts scored intervals where the counterfactual vector
	// equalled the recorded one.
	Matches int `json:"matches"`
}

// MatchRate is Matches / len(Intervals), in [0, 1].
func (r *ReplayResult) MatchRate() float64 {
	if len(r.Intervals) == 0 {
		return 0
	}
	return float64(r.Matches) / float64(len(r.Intervals))
}

// outcomeEval projects an interval's realized telemetry onto counterfactual
// mode vectors with the §5.5 model: normalize each core's true sample to
// Turbo under the vector that actually produced it, then scale to any lane's
// mode with the predictor's power law, derating instructions for the lane's
// own transition. This is the replay approximation: had a lane chosen
// differently, the chip cannot re-run, so the analytic projection stands in
// for the counterfactual physics.
type outcomeEval struct {
	p              core.Predictor
	pTurbo, iTurbo []float64
}

func (o *outcomeEval) scale(m modes.Mode) float64 {
	if o.p.PowerScale != nil {
		return o.p.PowerScale(m)
	}
	return o.p.Plan.PowerScale(m)
}

// set normalizes the realized samples to Turbo under the vector in force
// while they were observed.
func (o *outcomeEval) set(truth []core.Sample, inForce modes.Vector) {
	o.pTurbo = o.pTurbo[:0]
	o.iTurbo = o.iTurbo[:0]
	for c, s := range truth {
		o.pTurbo = append(o.pTurbo, s.PowerW/o.scale(inForce[c]))
		o.iTurbo = append(o.iTurbo, s.Instr/o.p.Plan.FreqScale(inForce[c]))
	}
}

// core projects core c's realized behavior onto mode m for a lane whose
// previous mode was prev, mirroring Predictor.MatricesInto's arithmetic.
func (o *outcomeEval) core(c int, m, prev modes.Mode) (powerW, instr float64) {
	powerW = o.pTurbo[c] * o.scale(m)
	instr = o.iTurbo[c] * o.p.Plan.FreqScale(m)
	if o.p.DerateTransitions && m != prev && o.p.ExploreSeconds > 0 {
		tr := o.p.Plan.TransitionTime(prev, m).Seconds()
		instr *= o.p.ExploreSeconds / (o.p.ExploreSeconds + tr)
	}
	return powerW, instr
}

// lane scores a whole vector.
func (o *outcomeEval) lane(v, prev modes.Vector) (powerW, instr float64) {
	for c, m := range v {
		p, in := o.core(c, m, prev[c])
		powerW += p
		instr += in
	}
	return powerW, instr
}

// matrices fills per-mode outcome matrices for the oracle solve, relative to
// the oracle lane's own previous vector.
func (o *outcomeEval) matrices(power, instr [][]float64, prev modes.Vector) {
	nm := o.p.Plan.NumModes()
	for c := range power {
		for m := 0; m < nm; m++ {
			power[c][m], instr[c][m] = o.core(c, modes.Mode(m), prev[c])
		}
	}
}

// Replay re-drives a recorded trace's telemetry through an alternate policy
// and reports per-interval and cumulative regret against the recorded
// decisions and against a perfect-prediction oracle.
//
// Three lanes advance in lockstep through the records:
//
//   - recorded: the trace's own vectors, verbatim;
//   - policy: a fresh manager (guarded when opt.Guard is set) fed exactly
//     what the recording manager was fed — the recorded budget, chip-level
//     measurement and observed (post-fault) samples;
//   - oracle: opt.Oracle maximizing instructions under the recorded budget
//     over the interval's *realized* telemetry (the next record's true
//     samples) — the decision a §5.6 perfect predictor would have made.
//
// Each decision is scored against the interval's realized true telemetry:
// normalized to Turbo under the recorded vector that produced it, projected
// onto each lane's chosen vector, with transition derating charged against
// the lane's own trajectory. The final decision's interval was never
// observed, so a trace of N records scores N−1 intervals. Replaying the
// trace's own policy/guard configuration reproduces the recorded vectors
// exactly and yields zero regret at every interval.
func Replay(t *obs.Trace, opt ReplayOptions) (*ReplayResult, error) {
	if len(t.Records) < 2 {
		return nil, fmt.Errorf("calib: replay: trace has %d decision records; need at least 2 to score outcomes", len(t.Records))
	}
	if opt.Policy == nil {
		return nil, fmt.Errorf("calib: replay: no counterfactual policy")
	}
	if opt.Plan.NumModes() == 0 {
		return nil, fmt.Errorf("calib: replay: no mode plan")
	}
	n := len(t.Records[0].Vector)
	if n == 0 {
		return nil, fmt.Errorf("calib: replay: trace records have empty mode vectors")
	}
	decider, err := engine.NewDecider(opt.Plan, opt.Policy, opt.Predictor, n, opt.Guard, opt.History)
	if err != nil {
		return nil, fmt.Errorf("calib: replay: %w", err)
	}
	oracle := opt.Oracle
	if oracle == nil {
		oracle, err = solver.New("bb", solver.Options{})
		if err != nil {
			return nil, fmt.Errorf("calib: replay: %w", err)
		}
	}

	out := &ReplayResult{
		Policy:         opt.Policy.Name(),
		RecordedPolicy: t.PolicyName(),
		Intervals:      make([]IntervalRegret, 0, len(t.Records)-1),
	}

	// Per-lane mode trajectories; all three start at all-Turbo like the
	// engine loop does.
	recCur := modes.Uniform(n, modes.Turbo)
	polCur := modes.Uniform(n, modes.Turbo)
	orcCur := modes.Uniform(n, modes.Turbo)
	ev := outcomeEval{p: opt.Predictor}
	nm := opt.Plan.NumModes()
	orcPower := make([][]float64, n)
	orcInstr := make([][]float64, n)
	for c := range orcPower {
		orcPower[c] = make([]float64, nm)
		orcInstr[c] = make([]float64, nm)
	}
	var observed, truth []core.Sample
	var recV modes.Vector

	for i := range t.Records {
		rec := &t.Records[i]
		recV = rec.ModeVector(recV)
		if len(recV) != n {
			return nil, fmt.Errorf("calib: replay: record %d vector has %d cores, want %d", i, len(recV), n)
		}
		for c, m := range recV {
			if !opt.Plan.Valid(m) {
				return nil, fmt.Errorf("calib: replay: record %d core %d: invalid mode %d", i, c, m)
			}
		}
		observed = rec.ObservedSamples(observed)
		if len(observed) != n {
			return nil, fmt.Errorf("calib: replay: record %d has %d observed cores, want %d", i, len(observed), n)
		}

		// Counterfactual lane: identical inputs to the recording manager's
		// StepDecision (warm-start hints omitted; they never change results).
		polV := decider.StepDecision(core.Decision{
			BudgetW:    rec.BudgetW,
			ChipPowerW: rec.ChipPowerW,
			Samples:    observed,
			MemBound:   opt.MemBound,
			Now:        time.Duration(rec.NowNs),
		})

		if i+1 == len(t.Records) {
			break // final decision: its interval was never observed
		}
		truth = t.Records[i+1].TrueSamples(truth)
		if len(truth) != n {
			return nil, fmt.Errorf("calib: replay: record %d true samples have %d cores, want %d", i+1, len(truth), n)
		}
		// The realized telemetry was produced under the recorded vector.
		ev.set(truth, recV)

		// Oracle lane: solve on the realized interval from its own
		// trajectory — what perfect prediction would have chosen.
		ev.matrices(orcPower, orcInstr, orcCur)
		orcV, _ := oracle.Solve(solver.Instance{
			Plan:    opt.Plan,
			BudgetW: rec.BudgetW,
			Power:   orcPower,
			Instr:   orcInstr,
		})

		recW, recI := ev.lane(recV, recCur)
		polW, polI := ev.lane(polV, polCur)
		orcW, orcI := ev.lane(orcV, orcCur)

		ir := IntervalRegret{
			Interval:       rec.Interval,
			NowNs:          rec.NowNs,
			BudgetW:        rec.BudgetW,
			RecordedInstr:  recI,
			PolicyInstr:    polI,
			OracleInstr:    orcI,
			RecordedPowerW: recW,
			PolicyPowerW:   polW,
			OraclePowerW:   orcW,
			VsRecorded:     recI - polI,
			VsOracle:       orcI - polI,
			Matched:        polV.Equal(recV),
		}
		if ir.Matched {
			out.Matches++
		}
		out.CumVsRecorded += ir.VsRecorded
		out.CumVsOracle += ir.VsOracle
		out.RecordedVsOracle += orcI - recI
		out.Intervals = append(out.Intervals, ir)

		recCur = append(recCur[:0], recV...)
		polCur = append(polCur[:0], polV...)
		orcCur = append(orcCur[:0], orcV...)
	}
	return out, nil
}
