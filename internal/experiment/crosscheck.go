package experiment

import (
	"gpm/internal/core"
	"gpm/internal/fullsim"
	"gpm/internal/metrics"
	"gpm/internal/workload"
)

// ---------------------------------------------------------------------------
// V2: managed cross-check. §3.1's deeper claim is that despite its
// abstractions, the trace-based tool ranks policies the way a cycle-level
// full-CMP simulation does ("the policy behaviors for each workload
// combination as well as the differences across different combinations are
// consistent between the two approaches"). This experiment runs the same
// policies under the same budget through both engines and compares the
// resulting degradations.
// ---------------------------------------------------------------------------

// CrossCheckRow is one policy's degradation under both engines.
type CrossCheckRow struct {
	Policy string
	// TraceDeg is the trace-based CMP tool's degradation vs its all-Turbo
	// baseline; FullDeg is the cycle-level simulator's.
	TraceDeg float64
	FullDeg  float64
}

// CrossCheckResult pairs the rows with the budget used.
type CrossCheckResult struct {
	ComboID    string
	BudgetFrac float64
	Rows       []CrossCheckRow
}

// CrossCheck runs MaxBIPS, chip-wide DVFS and the static floor through both
// engines at one budget on a combo's phase-0 behaviour.
//
// intervals is the number of explore intervals the cycle-level run covers
// (its cost is ~500k simulated cycles per interval per core).
func (e *Env) CrossCheck(combo workload.Combo, budgetFrac float64, intervals int) (*CrossCheckResult, error) {
	base, err := e.Baseline(combo)
	if err != nil {
		return nil, err
	}
	budgetW := budgetFrac * base.EnvelopePowerW()

	policies := []core.Policy{core.MaxBIPS{}, core.ChipWideDVFS{}}

	out := &CrossCheckResult{ComboID: combo.ID, BudgetFrac: budgetFrac}

	// Cycle-level baseline: all-Turbo committed instructions over the same
	// number of intervals.
	mkChip := func() (*fullsim.Chip, error) {
		chip, err := fullsim.NewWithOptions(e.Cfg, e.Model, e.Plan, combo.Benchmarks, 0, nil,
			fullsim.Options{Workers: e.workers()})
		if err != nil {
			return nil, err
		}
		chip.Warm(20_000)
		return chip, nil
	}
	chip, err := mkChip()
	if err != nil {
		return nil, err
	}
	fullBase, err := chip.Managed(fullsim.ManagedOptions{Policy: core.Fixed{Vector: chip.Vector()}, BudgetW: 1e12, Intervals: intervals})
	if err != nil {
		return nil, err
	}

	for _, pol := range policies {
		res, _, err := e.RunPolicy(combo, pol, budgetFrac)
		if err != nil {
			return nil, err
		}
		chip, err := mkChip()
		if err != nil {
			return nil, err
		}
		full, err := chip.Managed(fullsim.ManagedOptions{Policy: pol, BudgetW: budgetW, Intervals: intervals})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, CrossCheckRow{
			Policy:   pol.Name(),
			TraceDeg: metrics.Degradation(res.TotalInstr, base.TotalInstr),
			FullDeg:  metrics.Degradation(full.TotalInstr, fullBase.TotalInstr),
		})
	}
	return out, nil
}
