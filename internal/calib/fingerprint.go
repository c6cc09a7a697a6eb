package calib

import "gpm/internal/obs"

// hashStr folds s and a 0 terminator, so adjacent strings cannot run together.
func hashStr(w *obs.Hasher, s string) {
	w.Str(s)
	w.Str("\x00")
}

// hashFit folds one fit's statistics.
func hashFit(w *obs.Hasher, f Fit) {
	w.F64(float64(f.N))
	w.F64(f.MAPE)
	w.F64(f.Bias)
	w.F64(f.R)
	w.Bool(f.RDefined)
}

// ScoreFingerprint hashes every numeric series and fit statistic of a
// calibration Score bit-exactly, so any drift in the predictor, the trace
// schema, or the scoring pairing changes the hash.
func ScoreFingerprint(s *Score) uint64 {
	w := obs.NewHasher()
	hashStr(&w, s.Substrate)
	hashStr(&w, s.Policy)
	hashStr(&w, s.ComboID)
	w.F64(s.MeanBudgetW)
	w.F64(float64(s.Intervals))
	hashFit(&w, s.Power)
	hashFit(&w, s.Instr)
	for i := range s.PredPowerW {
		w.F64(s.PredPowerW[i])
		w.F64(s.ActualPowerW[i])
		w.F64(s.PredInstr[i])
		w.F64(s.ActualInstr[i])
	}
	return w.Sum()
}

// ReplayFingerprint hashes a counterfactual replay's full per-interval regret
// series and cumulative totals bit-exactly.
func ReplayFingerprint(r *ReplayResult) uint64 {
	w := obs.NewHasher()
	hashStr(&w, r.Policy)
	hashStr(&w, r.RecordedPolicy)
	for i := range r.Intervals {
		ir := &r.Intervals[i]
		w.F64(float64(ir.Interval))
		w.F64(float64(ir.NowNs))
		w.F64(ir.BudgetW)
		w.F64(ir.RecordedInstr)
		w.F64(ir.PolicyInstr)
		w.F64(ir.OracleInstr)
		w.F64(ir.RecordedPowerW)
		w.F64(ir.PolicyPowerW)
		w.F64(ir.OraclePowerW)
		w.F64(ir.VsRecorded)
		w.F64(ir.VsOracle)
		w.Bool(ir.Matched)
	}
	w.F64(r.CumVsRecorded)
	w.F64(r.CumVsOracle)
	w.F64(r.RecordedVsOracle)
	w.F64(float64(r.Matches))
	return w.Sum()
}
