package main

import (
	"encoding/json"
	"testing"

	"gpm/internal/engine"
	"gpm/internal/fleet"
)

// obsSchemaKeys is the stable -json schema of the engine counter block.
// Removing or renaming any of these breaks downstream consumers; additions
// are fine.
var obsSchemaKeys = []string{
	"decisions", "guard_overrides", "solver_nodes", "warm_hints",
	"solver_memo_hits", "solver_warm_solves", "solver_hint_returns", "solver_pruned",
}

func keysOf(t *testing.T, v interface{}) map[string]json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	m := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return m
}

// TestObsSummarySchema pins the counter block's key set and checks the
// engine → summary field mapping carries the session counters through.
func TestObsSummarySchema(t *testing.T) {
	o := engine.ObsCounters{
		Decisions:         7,
		SolverMemoHits:    5,
		SolverWarmSolves:  4,
		SolverHintReturns: 3,
		SolverPruned:      11,
	}
	m := keysOf(t, newObsSummary(o))
	for _, k := range obsSchemaKeys {
		if _, ok := m[k]; !ok {
			t.Errorf("obs summary missing key %q", k)
		}
	}
	var got obsSummary
	data, _ := json.Marshal(newObsSummary(o))
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.SolverMemoHits != 5 || got.SolverWarmSolves != 4 || got.SolverHintReturns != 3 || got.SolverPruned != 11 {
		t.Errorf("session counters lost in round trip: %+v", got)
	}
}

// TestRunSummarySchema pins the top-level run summary keys.
func TestRunSummarySchema(t *testing.T) {
	m := keysOf(t, runSummary{Kind: "run"})
	for _, k := range []string{"kind", "policy", "combo", "budget_frac", "budget_w",
		"degradation", "avg_chip_power_w", "total_instr", "obs"} {
		if _, ok := m[k]; !ok {
			t.Errorf("run summary missing key %q", k)
		}
	}
}

// TestXcheckSummarySchema pins the cross-substrate summary keys, including
// the per-substrate obs blocks.
func TestXcheckSummarySchema(t *testing.T) {
	s := xcheckSummary{Kind: "xcheck", Policies: []xcheckPolicySummary{{Policy: "MaxBIPS"}}}
	m := keysOf(t, s)
	for _, k := range []string{"kind", "combo", "budget_frac", "intervals", "rank_agree", "policies"} {
		if _, ok := m[k]; !ok {
			t.Errorf("xcheck summary missing key %q", k)
		}
	}
	var rows []map[string]json.RawMessage
	if err := json.Unmarshal(m["policies"], &rows); err != nil || len(rows) != 1 {
		t.Fatalf("policies block: %v (%d rows)", err, len(rows))
	}
	for _, k := range []string{"policy", "trace_deg", "full_deg", "deg_gap", "trace_obs", "full_obs"} {
		if _, ok := rows[0][k]; !ok {
			t.Errorf("xcheck policy row missing key %q", k)
		}
	}
}

// TestFleetSummaryAggregation checks the fleet summary folds epoch-solve
// telemetry and sums chip counters.
func TestFleetSummaryAggregation(t *testing.T) {
	res := &fleet.Result{
		Chips: 2,
		EpochLog: []fleet.EpochStats{
			{DirtyChips: 2},
			{DirtyChips: 0, SolveSkipped: true},
			{DirtyChips: 1},
		},
		ChipResults: []*engine.Result{
			{Obs: engine.ObsCounters{SolverMemoHits: 3, SolverWarmSolves: 2, SolverPruned: 5}},
			{Obs: engine.ObsCounters{SolverMemoHits: 1, SolverHintReturns: 1, SolverPruned: 2}},
		},
	}
	s := newFleetSummary(res)
	if s.Epochs != 3 || s.EpochSolvesSkipped != 1 || s.EpochDirtyChips != 3 {
		t.Errorf("epoch telemetry = %d/%d/%d, want 3/1/3", s.Epochs, s.EpochSolvesSkipped, s.EpochDirtyChips)
	}
	if s.ChipObs.SolverMemoHits != 4 || s.ChipObs.SolverWarmSolves != 2 || s.ChipObs.SolverHintReturns != 1 || s.ChipObs.SolverPruned != 7 {
		t.Errorf("chip obs aggregation wrong: %+v", s.ChipObs)
	}
	m := keysOf(t, s)
	for _, k := range []string{"kind", "chips", "throughput_rps", "jain_fairness", "completed",
		"shed", "epochs", "epoch_solves_skipped", "epoch_dirty_chips", "chip_obs"} {
		if _, ok := m[k]; !ok {
			t.Errorf("fleet summary missing key %q", k)
		}
	}
}
