package experiment

import (
	"fmt"
	"time"

	"gpm/internal/calib"
	"gpm/internal/cmpsim"
	"gpm/internal/core"
	"gpm/internal/obs"
	"gpm/internal/pool"
	"gpm/internal/report"
	"gpm/internal/workload"
)

// ---------------------------------------------------------------------------
// Fidelity experiments. PR1-8 grew decisions (policies, solvers, guard,
// supervisor) and substrates (trace, cycle-level, fleet); this file closes
// the loop on how *accurate* those decisions' inputs were. CalibrationSweep
// scores the §5.5 predictor against what each substrate then actually did,
// per policy × budget, with and without the history-table phase predictor;
// CounterfactualReplay re-drives one recorded run's telemetry through
// alternate policies and a true-telemetry oracle, turning the paper's
// "MaxBIPS trails the oracle because prediction errs" claim into a measured
// per-interval regret table.
// ---------------------------------------------------------------------------

// CalibrationCell is one policy × budget calibration: the same management
// problem scored on both substrates, under last-value and history prediction.
type CalibrationCell struct {
	Policy     string  `json:"policy"`
	BudgetFrac float64 `json:"budget_frac"`
	// Cmp/Full score the substrate's own trace with the env's last-value
	// §5.5 predictor; the History variants re-score the identical trace
	// through a fresh history-table phase predictor, so (MAPE − HistoryMAPE)
	// is exactly the value of phase prediction on that workload.
	Cmp         *calib.Score `json:"cmp"`
	CmpHistory  *calib.Score `json:"cmp_history"`
	Full        *calib.Score `json:"full"`
	FullHistory *calib.Score `json:"full_history"`
	// Cross scores the trace substrate's per-interval telemetry against the
	// cycle-level chip's for the same problem.
	Cross *calib.CrossScore `json:"cross"`
}

// CalibrationResult is the full sweep.
type CalibrationResult struct {
	ComboID   string             `json:"combo"`
	Intervals int                `json:"intervals"`
	History   core.HistoryConfig `json:"history"`
	Cells     []CalibrationCell  `json:"cells"`
}

// CalibrationSweep records matched cmpsim/fullsim runs for every policy ×
// budget cell and scores predicted-vs-actual per-interval chip power and
// throughput on both, with the env's last-value predictor and with a fresh
// history-table phase predictor per trace. A nil policies slice selects
// CrossSubstratePolicies; nil budgetFracs selects e.Budgets.
func (e *Env) CalibrationSweep(combo workload.Combo, budgetFracs []float64, intervals int, policies []core.Policy, history core.HistoryConfig) (*CalibrationResult, error) {
	res, _, err := e.CalibrationSweepWithState(combo, budgetFracs, intervals, policies, history, nil)
	return res, err
}

// CalibrationSweepWithState is CalibrationSweep plus history-state
// persistence: a non-nil prime is imported into every history-predictor lane
// before scoring (so the sweep measures the value of carried-over training),
// and the returned state is the trained tables from the deterministic
// reference lane — cell 0's cmpsim trace (first policy × first budget).
// With prime nil, every lane starts cold and the sweep is bit-identical to
// CalibrationSweep (the calibration goldens pin it).
func (e *Env) CalibrationSweepWithState(combo workload.Combo, budgetFracs []float64, intervals int, policies []core.Policy, history core.HistoryConfig, prime *core.HistoryState) (*CalibrationResult, *core.HistoryState, error) {
	if policies == nil {
		policies = CrossSubstratePolicies()
	}
	if budgetFracs == nil {
		budgetFracs = e.Budgets
	}
	if err := history.Validate(); err != nil {
		return nil, nil, err
	}
	out := &CalibrationResult{ComboID: combo.ID, Intervals: intervals, History: history}
	cells := make([]CalibrationCell, len(policies)*len(budgetFracs))
	var trained *core.HistoryState // written only by the i==0 worker
	err := pool.ForEach(e.workers(), len(cells), func(i int) error {
		pol := policies[i/len(budgetFracs)]
		frac := budgetFracs[i%len(budgetFracs)]
		cmpTrace, fullTrace, err := e.CrossSubstrateTraced(combo, pol, frac, intervals)
		if err != nil {
			return err
		}
		cell := CalibrationCell{Policy: pol.Name(), BudgetFrac: frac}
		score := func(t *obs.Trace, withHistory bool) (*calib.Score, error) {
			var pred core.MatrixPredictor = e.Predictor()
			if withHistory {
				hp := core.NewHistoryPredictor(e.Predictor(), history)
				if prime != nil {
					if err := hp.ImportState(prime); err != nil {
						return nil, err
					}
				}
				pred = hp
				s, err := calib.ScoreTrace(t, e.Plan, pred)
				if err == nil && i == 0 && t == cmpTrace {
					trained = hp.ExportState()
				}
				return s, err
			}
			return calib.ScoreTrace(t, e.Plan, pred)
		}
		if cell.Cmp, err = score(cmpTrace, false); err != nil {
			return err
		}
		if cell.CmpHistory, err = score(cmpTrace, true); err != nil {
			return err
		}
		if cell.Full, err = score(fullTrace, false); err != nil {
			return err
		}
		if cell.FullHistory, err = score(fullTrace, true); err != nil {
			return err
		}
		if cell.Cross, err = calib.CrossFit(cmpTrace, fullTrace); err != nil {
			return err
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out.Cells = cells
	return out, trained, nil
}

// Table renders the sweep: per cell, power/throughput MAPE and Pearson r on
// both substrates, the history predictor's MAPE, and cross-substrate
// agreement.
func (r *CalibrationResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Predictor calibration — %s, %d intervals", r.ComboID, r.Intervals),
		"policy", "budget", "cmp pwr MAPE", "cmp bips MAPE", "hist bips MAPE", "cmp bips r",
		"full pwr MAPE", "full bips MAPE", "hist bips MAPE", "cross bips MAPE")
	pct := func(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }
	rstr := func(f calib.Fit) string {
		if !f.RDefined {
			return "n/a"
		}
		return fmt.Sprintf("%.3f", f.R)
	}
	for _, c := range r.Cells {
		t.AddRow(c.Policy, fmt.Sprintf("%.0f%%", c.BudgetFrac*100),
			pct(c.Cmp.Power.MAPE), pct(c.Cmp.Instr.MAPE), pct(c.CmpHistory.Instr.MAPE), rstr(c.Cmp.Instr),
			pct(c.Full.Power.MAPE), pct(c.Full.Instr.MAPE), pct(c.FullHistory.Instr.MAPE), pct(c.Cross.Instr.MAPE))
	}
	return t
}

// Fingerprint folds every cell's score fingerprints into one golden value.
func (r *CalibrationResult) Fingerprint() uint64 {
	h := uint64(14695981039346656037) // FNV-64a offset basis
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, c := range r.Cells {
		mix(calib.ScoreFingerprint(c.Cmp))
		mix(calib.ScoreFingerprint(c.CmpHistory))
		mix(calib.ScoreFingerprint(c.Full))
		mix(calib.ScoreFingerprint(c.FullHistory))
	}
	return h
}

// RegretRow is one counterfactual policy replayed against a recorded run.
type RegretRow struct {
	Policy string              `json:"policy"`
	Replay *calib.ReplayResult `json:"replay"`
}

// RegretResult is the full counterfactual replay report.
type RegretResult struct {
	ComboID        string      `json:"combo"`
	RecordedPolicy string      `json:"recorded_policy"`
	BudgetFrac     float64     `json:"budget_frac"`
	BudgetW        float64     `json:"budget_w"`
	Intervals      int         `json:"intervals"`
	Rows           []RegretRow `json:"rows"`
}

// CounterfactualReplay records one cmpsim run under `recorded`, then
// re-drives the recorded telemetry through each alternate policy, reporting
// per-interval and cumulative regret versus the recorded decisions and versus
// the true-telemetry oracle. The recorded policy itself is always row 0 — its
// zero VsRecorded regret is the replay-fidelity check, and its VsOracle is
// the prediction-error gap the paper attributes MaxBIPS's oracle shortfall
// to. A nil alts slice selects CrossSubstratePolicies.
func (e *Env) CounterfactualReplay(combo workload.Combo, recorded core.Policy, budgetFrac float64, intervals int, alts []core.Policy) (*RegretResult, error) {
	if alts == nil {
		alts = CrossSubstratePolicies()
	}
	horizon := e.Cfg.Sim.Explore * time.Duration(intervals)
	base, err := e.Baseline(combo)
	if err != nil {
		return nil, err
	}
	budgetW := budgetFrac * base.EnvelopePowerW()
	memBound, err := cmpsim.MemBoundedness(e.Lib, combo)
	if err != nil {
		return nil, err
	}

	col := obs.NewCollector(e.Manifest("cmpsim", combo, recorded.Name(), fmt.Sprintf("fixed=%.6gW", budgetW), "", false))
	if _, err := cmpsim.Run(e.Lib, combo, cmpsim.Options{
		Budget:    cmpsim.FixedBudget(budgetW),
		Policy:    recorded,
		Predictor: e.Predictor(),
		Horizon:   horizon,
		Observer:  col,
	}); err != nil {
		return nil, err
	}
	trace := col.Trace()

	out := &RegretResult{
		ComboID:        combo.ID,
		RecordedPolicy: recorded.Name(),
		BudgetFrac:     budgetFrac,
		BudgetW:        budgetW,
		Intervals:      len(trace.Records),
	}
	lanes := []core.Policy{recorded}
	for _, alt := range alts {
		if alt.Name() != recorded.Name() {
			lanes = append(lanes, alt)
		}
	}
	rows := make([]RegretRow, len(lanes))
	err = pool.ForEach(e.workers(), len(lanes), func(i int) error {
		rr, err := calib.Replay(trace, calib.ReplayOptions{
			Plan:      e.Plan,
			Predictor: e.Predictor(),
			Policy:    lanes[i],
			MemBound:  memBound,
		})
		if err != nil {
			return err
		}
		rows[i] = RegretRow{Policy: lanes[i].Name(), Replay: rr}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}

// Table renders the replay: cumulative regrets, match rate, and the recorded
// run's own gap to the oracle.
func (r *RegretResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Counterfactual regret — %s, recorded %s @ %.0f%% (%.1f W), %d intervals",
			r.ComboID, r.RecordedPolicy, r.BudgetFrac*100, r.BudgetW, r.Intervals),
		"policy", "cum vs recorded", "cum vs oracle", "match", "recorded vs oracle")
	for _, row := range r.Rows {
		rr := row.Replay
		t.AddRow(row.Policy,
			fmt.Sprintf("%.4g", rr.CumVsRecorded),
			fmt.Sprintf("%.4g", rr.CumVsOracle),
			fmt.Sprintf("%.0f%%", rr.MatchRate()*100),
			fmt.Sprintf("%.4g", rr.RecordedVsOracle))
	}
	return t
}

// Fingerprint folds every row's replay fingerprint into one golden value.
func (r *RegretResult) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, row := range r.Rows {
		mix(calib.ReplayFingerprint(row.Replay))
	}
	return h
}
