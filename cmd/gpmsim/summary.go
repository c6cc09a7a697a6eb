package main

import (
	"gpm/internal/engine"
	"gpm/internal/experiment"
	"gpm/internal/fleet"
)

// obsSummary is the machine-readable shape of the engine's observability
// counters inside -json run summaries. Field names are the stable schema
// (summary_test.go pins them); extend, never rename.
type obsSummary struct {
	Decisions         int   `json:"decisions"`
	GuardOverrides    int   `json:"guard_overrides"`
	SolverNodes       int64 `json:"solver_nodes"`
	WarmHints         int   `json:"warm_hints"`
	SolverMemoHits    int64 `json:"solver_memo_hits"`
	SolverWarmSolves  int64 `json:"solver_warm_solves"`
	SolverHintReturns int64 `json:"solver_hint_returns"`
	SolverPruned      int64 `json:"solver_pruned"`
}

func newObsSummary(o engine.ObsCounters) obsSummary {
	return obsSummary{
		Decisions:         o.Decisions,
		GuardOverrides:    o.GuardOverrides,
		SolverNodes:       o.SolverNodes,
		WarmHints:         o.WarmHints,
		SolverMemoHits:    o.SolverMemoHits,
		SolverWarmSolves:  o.SolverWarmSolves,
		SolverHintReturns: o.SolverHintReturns,
		SolverPruned:      o.SolverPruned,
	}
}

// runSummary is the -json report of `gpmsim run`.
type runSummary struct {
	Kind          string     `json:"kind"` // "run"
	Policy        string     `json:"policy"`
	Combo         string     `json:"combo"`
	BudgetFrac    float64    `json:"budget_frac"`
	BudgetW       float64    `json:"budget_w"`
	Degradation   float64    `json:"degradation"`
	AvgChipPowerW float64    `json:"avg_chip_power_w"`
	TotalInstr    float64    `json:"total_instr"`
	Obs           obsSummary `json:"obs"`
}

// xcheckPolicySummary is one policy's row in the -json report of
// `gpmsim xcheck`, with per-substrate observability counters.
type xcheckPolicySummary struct {
	Policy   string     `json:"policy"`
	TraceDeg float64    `json:"trace_deg"`
	FullDeg  float64    `json:"full_deg"`
	DegGap   float64    `json:"deg_gap"`
	TraceObs obsSummary `json:"trace_obs"`
	FullObs  obsSummary `json:"full_obs"`
}

type xcheckSummary struct {
	Kind       string                `json:"kind"` // "xcheck"
	Combo      string                `json:"combo"`
	BudgetFrac float64               `json:"budget_frac"`
	Intervals  int                   `json:"intervals"`
	RankAgree  bool                  `json:"rank_agree"`
	Policies   []xcheckPolicySummary `json:"policies"`
}

func newXcheckSummary(res *experiment.CrossSubstrateResult) xcheckSummary {
	out := xcheckSummary{
		Kind:       "xcheck",
		Combo:      res.ComboID,
		BudgetFrac: res.BudgetFrac,
		Intervals:  res.Intervals,
		RankAgree:  res.RankAgree,
	}
	for _, r := range res.Rows {
		out.Policies = append(out.Policies, xcheckPolicySummary{
			Policy:   r.Policy,
			TraceDeg: r.TraceDeg,
			FullDeg:  r.FullDeg,
			DegGap:   r.DegGap,
			TraceObs: newObsSummary(r.TraceObs),
			FullObs:  newObsSummary(r.FullObs),
		})
	}
	return out
}

// fleetSummary is the -json report of `gpmsim fleet`: serving outcome plus
// the arbiter's epoch-solve telemetry and the chips' aggregated engine
// counters (delta path included).
type fleetSummary struct {
	Kind          string  `json:"kind"` // "fleet"
	Chips         int     `json:"chips"`
	ThroughputRPS float64 `json:"throughput_rps"`
	JainFairness  float64 `json:"jain_fairness"`
	Completed     int     `json:"completed"`
	Shed          int     `json:"shed"`
	// Epochs counts arbiter rebalances; EpochSolvesSkipped the ones answered
	// by the generation handshake without a solve; EpochDirtyChips the total
	// dirty-chip count the handshake reported across epochs.
	Epochs             int        `json:"epochs"`
	EpochSolvesSkipped int        `json:"epoch_solves_skipped"`
	EpochDirtyChips    int        `json:"epoch_dirty_chips"`
	ChipObs            obsSummary `json:"chip_obs"` // summed across chips
}

func newFleetSummary(res *fleet.Result) fleetSummary {
	out := fleetSummary{
		Kind:          "fleet",
		Chips:         res.Chips,
		ThroughputRPS: res.ThroughputRPS,
		JainFairness:  res.JainFairness,
		Completed:     res.Completed,
		Shed:          res.Shed,
		Epochs:        len(res.EpochLog),
	}
	for _, e := range res.EpochLog {
		if e.SolveSkipped {
			out.EpochSolvesSkipped++
		}
		out.EpochDirtyChips += e.DirtyChips
	}
	var agg engine.ObsCounters
	for _, cr := range res.ChipResults {
		agg.Decisions += cr.Obs.Decisions
		agg.GuardOverrides += cr.Obs.GuardOverrides
		agg.SolverNodes += cr.Obs.SolverNodes
		agg.WarmHints += cr.Obs.WarmHints
		agg.SolverMemoHits += cr.Obs.SolverMemoHits
		agg.SolverWarmSolves += cr.Obs.SolverWarmSolves
		agg.SolverHintReturns += cr.Obs.SolverHintReturns
		agg.SolverPruned += cr.Obs.SolverPruned
	}
	out.ChipObs = newObsSummary(agg)
	return out
}
