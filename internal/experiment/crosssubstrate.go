package experiment

import (
	"fmt"
	"sort"
	"time"

	"gpm/internal/cmpsim"
	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/fullsim"
	"gpm/internal/metrics"
	"gpm/internal/modes"
	"gpm/internal/obs"
	"gpm/internal/pool"
	"gpm/internal/workload"
)

// ---------------------------------------------------------------------------
// Cross-substrate agreement. With the control loop extracted into
// internal/engine, the trace-based tool and the cycle-level simulator run the
// *same* manager, middleware chain and accounting — the only thing that
// differs is the substrate underneath. This experiment quantifies how far the
// substrates themselves diverge: per policy, the throughput degradation and
// average power each substrate reports for the identical management problem.
// It is the §3.1 validation argument made mechanical: if the loop is shared,
// any disagreement is attributable to trace abstraction error, not to policy
// implementation drift.
// ---------------------------------------------------------------------------

// CrossSubstrateRow is one policy observed through both substrates.
type CrossSubstrateRow struct {
	Policy string
	// TraceDeg / FullDeg are throughput degradations vs the same-substrate
	// all-Turbo baseline over the same simulated horizon.
	TraceDeg float64
	FullDeg  float64
	// DegGap is |TraceDeg − FullDeg|: the trace abstraction's ranking error
	// for this policy.
	DegGap float64
	// TraceAvgPowerW / FullAvgPowerW are run-average chip powers.
	TraceAvgPowerW float64
	FullAvgPowerW  float64
	// TraceFit / FullFit are average power / budget: how tightly each
	// substrate's managed run tracks the budget.
	TraceFit float64
	FullFit  float64
	// TraceObs / FullObs snapshot each run's engine observability counters
	// (warm-start and delta-path session counters included) for machine-
	// readable summaries.
	TraceObs engine.ObsCounters
	FullObs  engine.ObsCounters
}

// CrossSubstrateResult is the per-policy agreement report.
type CrossSubstrateResult struct {
	ComboID    string
	BudgetFrac float64
	// BudgetW is the absolute budget both substrates were managed to
	// (budgetFrac × the trace baseline's worst-case envelope).
	BudgetW float64
	// Intervals is the explore-interval count both runs covered.
	Intervals int
	Rows      []CrossSubstrateRow
	// RankAgree reports whether both substrates order the policies
	// identically by degradation — the paper's consistency claim.
	RankAgree bool
}

// CrossSubstratePolicies is the default policy set for agreement runs.
func CrossSubstratePolicies() []core.Policy {
	return []core.Policy{core.MaxBIPS{}, core.ChipWideDVFS{}, core.Priority{}}
}

// CrossSubstrate runs each policy through both substrates — trace players
// and the cycle-level chip, both under the engine's control loop — at one
// budget over `intervals` explore intervals, and reports per-policy
// throughput/power agreement. A nil policies slice selects
// CrossSubstratePolicies.
func (e *Env) CrossSubstrate(combo workload.Combo, budgetFrac float64, intervals int, policies []core.Policy) (*CrossSubstrateResult, error) {
	if policies == nil {
		policies = CrossSubstratePolicies()
	}
	horizon := e.Cfg.Sim.Explore * time.Duration(intervals)
	n := combo.Cores()

	runTrace := func(pol core.Policy, budget func(time.Duration) float64) (*cmpsim.Result, error) {
		return cmpsim.Run(e.Lib, combo, cmpsim.Options{
			Budget:    budget,
			Policy:    pol,
			Predictor: e.Predictor(),
			Horizon:   horizon,
		})
	}
	mkChip := func(workers int) (*fullsim.Chip, error) {
		chip, err := fullsim.NewWithOptions(e.Cfg, e.Model, e.Plan, combo.Benchmarks, 0, nil,
			fullsim.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		chip.Warm(20_000)
		return chip, nil
	}

	traceBase, err := runTrace(core.Fixed{Vector: modes.Uniform(n, modes.Turbo)}, cmpsim.Unlimited())
	if err != nil {
		return nil, err
	}
	budgetW := budgetFrac * traceBase.EnvelopePowerW()

	chip, err := mkChip(e.workers())
	if err != nil {
		return nil, err
	}
	fullBase, err := chip.Managed(fullsim.ManagedOptions{Policy: core.Fixed{Vector: modes.Uniform(n, modes.Turbo)}, BudgetW: 1e12, Intervals: intervals})
	if err != nil {
		return nil, err
	}

	out := &CrossSubstrateResult{
		ComboID:    combo.ID,
		BudgetFrac: budgetFrac,
		BudgetW:    budgetW,
		Intervals:  intervals,
	}
	// Fan the per-policy runs (each a trace run plus a cycle-level run) out
	// on the shared pool; the chips split the worker budget so the sweep's
	// total goroutine count stays bounded by e.Workers.
	rows := make([]CrossSubstrateRow, len(policies))
	err = pool.ForEach(e.workers(), len(policies), func(i int) error {
		pol := policies[i]
		tr, err := runTrace(pol, cmpsim.FixedBudget(budgetW))
		if err != nil {
			return err
		}
		chip, err := mkChip(e.chipWorkers(len(policies)))
		if err != nil {
			return err
		}
		full, err := chip.Managed(fullsim.ManagedOptions{Policy: pol, BudgetW: budgetW, Intervals: intervals})
		if err != nil {
			return err
		}
		row := CrossSubstrateRow{
			Policy:         pol.Name(),
			TraceDeg:       metrics.Degradation(tr.TotalInstr, traceBase.TotalInstr),
			FullDeg:        metrics.Degradation(full.TotalInstr, fullBase.TotalInstr),
			TraceAvgPowerW: tr.AvgChipPowerW(),
			FullAvgPowerW:  full.AvgChipPowerW(),
			TraceFit:       metrics.BudgetFit(tr.AvgChipPowerW(), budgetW),
			FullFit:        metrics.BudgetFit(full.AvgChipPowerW(), budgetW),
			TraceObs:       tr.Obs,
			FullObs:        full.Obs,
		}
		if row.TraceDeg > row.FullDeg {
			row.DegGap = row.TraceDeg - row.FullDeg
		} else {
			row.DegGap = row.FullDeg - row.TraceDeg
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	out.RankAgree = sameRanking(out.Rows)
	return out, nil
}

// CrossSubstrateTraced runs one policy at one budget through both substrates
// with decision tracing attached and returns the two traces. Because both
// substrates run the identical engine loop, `obs.Diff` on the pair (or
// `gpmsim tracediff` on the written files) names the first interval, core and
// field where the trace abstraction makes the manager see a different chip —
// the §3.1 validation argument at per-decision resolution.
func (e *Env) CrossSubstrateTraced(combo workload.Combo, pol core.Policy, budgetFrac float64, intervals int) (cmpTrace, fullTrace *obs.Trace, err error) {
	horizon := e.Cfg.Sim.Explore * time.Duration(intervals)
	n := combo.Cores()

	traceBase, err := cmpsim.Run(e.Lib, combo, cmpsim.Options{
		Budget:    cmpsim.Unlimited(),
		Policy:    core.Fixed{Vector: modes.Uniform(n, modes.Turbo)},
		Predictor: e.Predictor(),
		Horizon:   horizon,
	})
	if err != nil {
		return nil, nil, err
	}
	budgetW := budgetFrac * traceBase.EnvelopePowerW()
	budgetSpec := fmt.Sprintf("fixed=%.6gW", budgetW)

	cmpCol := obs.NewCollector(e.Manifest("cmpsim", combo, pol.Name(), budgetSpec, "", false))
	cmpCol.Trace().Manifest.HorizonNs = horizon.Nanoseconds()
	if _, err := cmpsim.Run(e.Lib, combo, cmpsim.Options{
		Budget:    cmpsim.FixedBudget(budgetW),
		Policy:    pol,
		Predictor: e.Predictor(),
		Horizon:   horizon,
		Observer:  cmpCol,
	}); err != nil {
		return nil, nil, err
	}

	chip, err := fullsim.NewWithOptions(e.Cfg, e.Model, e.Plan, combo.Benchmarks, 0, nil,
		fullsim.Options{Workers: e.workers()})
	if err != nil {
		return nil, nil, err
	}
	chip.Warm(20_000)
	fullCol := obs.NewCollector(e.Manifest("fullsim", combo, pol.Name(), budgetSpec, "", false))
	fullCol.Trace().Manifest.HorizonNs = horizon.Nanoseconds()
	if _, err := chip.Managed(fullsim.ManagedOptions{
		Policy:    pol,
		BudgetW:   budgetW,
		Intervals: intervals,
		Observer:  fullCol,
	}); err != nil {
		return nil, nil, err
	}
	return cmpCol.Trace(), fullCol.Trace(), nil
}

// sameRanking reports whether sorting the policies by trace degradation and
// by cycle-level degradation yields the same order.
func sameRanking(rows []CrossSubstrateRow) bool {
	byTrace := make([]int, len(rows))
	byFull := make([]int, len(rows))
	for i := range rows {
		byTrace[i], byFull[i] = i, i
	}
	sort.SliceStable(byTrace, func(a, b int) bool { return rows[byTrace[a]].TraceDeg < rows[byTrace[b]].TraceDeg })
	sort.SliceStable(byFull, func(a, b int) bool { return rows[byFull[a]].FullDeg < rows[byFull[b]].FullDeg })
	for i := range byTrace {
		if byTrace[i] != byFull[i] {
			return false
		}
	}
	return true
}
