package experiment

import (
	"gpm/internal/core"
	"gpm/internal/metrics"
)

// ---------------------------------------------------------------------------
// A6: mode-selector comparison — exhaustive MaxBIPS vs the extension
// selectors (greedy, hierarchical, hysteresis) on quality, budget fit and
// transition-stall overhead. §5.5 motivates cheaper selectors; the
// hysteresis variant addresses the mode-thrash plain MaxBIPS exhibits on
// jittery intervals.
// ---------------------------------------------------------------------------

// SelectorRow compares one selector at one width/budget.
type SelectorRow struct {
	Policy      string
	Cores       int
	BudgetFrac  float64
	Degradation float64
	BudgetFit   float64
	StallShare  float64
	Overshoot   float64
}

// AblationSelectors runs the selector family on a tiled combo of the given
// width at one budget.
func (e *Env) AblationSelectors(width int, budgetFrac float64) ([]SelectorRow, error) {
	combo := ReplicatedCombo(width)
	cfg := e.Cfg
	cfg.Chip.NumCores = width
	env := NewEnvWith(cfg)
	env.Lib = e.Lib
	env.Budgets = []float64{budgetFrac}
	base, err := env.Baseline(combo)
	if err != nil {
		return nil, err
	}

	policies := []core.Policy{
		core.GreedyMaxBIPS{},
		core.NewHierarchical(4),
		core.StableMaxBIPS{},
	}
	if width <= 10 {
		policies = append([]core.Policy{core.MaxBIPS{}}, policies...)
	}

	var rows []SelectorRow
	for _, pol := range policies {
		res, _, err := env.RunPolicy(combo, pol, budgetFrac)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SelectorRow{
			Policy:      pol.Name(),
			Cores:       width,
			BudgetFrac:  budgetFrac,
			Degradation: metrics.Degradation(res.TotalInstr, base.TotalInstr),
			BudgetFit:   metrics.BudgetFit(res.AvgChipPowerW(), budgetFrac*base.EnvelopePowerW()),
			StallShare:  res.TransitionStall.Seconds() / res.Elapsed.Seconds(),
			Overshoot:   float64(res.OvershootIntervals) / float64(len(res.ChipPowerW)),
		})
	}
	return rows, nil
}
