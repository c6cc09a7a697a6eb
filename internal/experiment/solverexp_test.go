package experiment

import (
	"testing"
	"time"

	"gpm/internal/modes"
	"gpm/internal/solver"
	"gpm/internal/workload"
)

// instanceForCombo builds a decision instance from a seed workload's real
// characterized behaviours, with per-core phase offsets.
func instanceForCombo(t *testing.T, e *Env, combo workload.Combo, budgetFrac float64) solver.Instance {
	t.Helper()
	players, err := e.Lib.Players(combo)
	if err != nil {
		t.Fatal(err)
	}
	exploreSec := e.Cfg.Sim.Explore.Seconds()
	n := combo.Cores()
	in := solver.Instance{
		Plan:  e.Plan,
		Power: make([][]float64, n),
		Instr: make([][]float64, n),
	}
	nm := e.Plan.NumModes()
	var turbo float64
	for c, pl := range players {
		pl.Advance(modes.Turbo, float64(c)*5*exploreSec)
		in.Power[c] = make([]float64, nm)
		in.Instr[c] = make([]float64, nm)
		for m := 0; m < nm; m++ {
			pw, rate := pl.Behavior(modes.Mode(m))
			in.Power[c][m] = pw
			in.Instr[c][m] = rate * exploreSec
		}
		turbo += in.Power[c][0]
	}
	in.BudgetW = budgetFrac * turbo
	return in
}

// TestGoldenBBOnSeedWorkloads is the acceptance golden: on every 8-core
// Table 2 combo and every budget, branch-and-bound (lex-tie mode) must return
// a vector bit-identical to the exhaustive reference.
func TestGoldenBBOnSeedWorkloads(t *testing.T) {
	e := env(t)
	combos, err := workload.Combos(8)
	if err != nil {
		t.Fatal(err)
	}
	budgets := DefaultBudgets
	if testing.Short() {
		budgets = []float64{0.60, 0.80, 1.00}
	}
	ex := &solver.Exhaustive{}
	bb := &solver.BB{LexTies: true}
	for _, combo := range combos {
		for _, frac := range budgets {
			in := instanceForCombo(t, e, combo, frac)
			exV, _ := ex.Solve(in)
			bbV, bbSt := bb.Solve(in)
			if !bbSt.Exact {
				t.Fatalf("%s @%.0f%%: bb did not certify exactness", combo.ID, frac*100)
			}
			if !bbV.Equal(exV) {
				t.Fatalf("%s @%.0f%%: bb %v, exhaustive %v", combo.ID, frac*100, bbV, exV)
			}
		}
	}
}

// TestGoldenSimDecisionsBitIdentical runs the end-to-end check: full CMP
// simulations under MaxBIPS vs the BB-backed policy must make identical
// decisions at every explore interval.
func TestGoldenSimDecisionsBitIdentical(t *testing.T) {
	e := env(t).ShortHorizon(10 * time.Millisecond)
	combos, err := workload.Combos(8)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []float64{0.60, 0.75, 0.90}
	if testing.Short() {
		budgets = budgets[:1]
	}
	for i := range combos {
		for _, frac := range budgets {
			same, decisions, err := e.SolverCompareDecisions(i, frac)
			if err != nil {
				t.Fatal(err)
			}
			if decisions == 0 {
				t.Fatalf("combo %d @%.0f%%: no decisions recorded", i, frac*100)
			}
			if !same {
				t.Fatalf("combo %d @%.0f%%: bb decisions diverged from MaxBIPS over %d intervals", i, frac*100, decisions)
			}
		}
	}
}

func TestSolverScalingQuick(t *testing.T) {
	e := env(t)
	rows, err := e.SolverScaling([]int{4, 8}, 0.75, SolverScalingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byWidth := map[int]int{}
	for _, r := range rows {
		byWidth[r.Cores]++
		if r.Reference != "exhaustive" {
			t.Errorf("%d-core %s: reference %q, want exhaustive", r.Cores, r.Solver, r.Reference)
		}
		if r.PowerW > r.BudgetW+1e-9 {
			t.Errorf("%d-core %s: over budget (%.3f > %.3f)", r.Cores, r.Solver, r.PowerW, r.BudgetW)
		}
		if r.Quality <= 0 || r.Quality > 1+1e-9 {
			t.Errorf("%d-core %s: quality %.4f out of range", r.Cores, r.Solver, r.Quality)
		}
		switch r.Solver {
		case "bb":
			if !r.Exact || r.Quality < 1-1e-9 {
				t.Errorf("%d-core bb: exact=%v quality=%.6f, want exact optimum", r.Cores, r.Exact, r.Quality)
			}
		case "hier":
			if r.Quality < 0.99 {
				t.Errorf("%d-core hier: quality %.4f below 99%%", r.Cores, r.Quality)
			}
		}
	}
	for _, n := range []int{4, 8} {
		if byWidth[n] != 4 {
			t.Errorf("%d-core: %d rows, want 4 solvers", n, byWidth[n])
		}
	}
}

// TestSolverScalingLarge exercises the widths the paper's exhaustive policy
// cannot reach; the hierarchical solver must carry the sweep to 1024 cores.
func TestSolverScalingLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large-width sweep")
	}
	e := env(t)
	rows, err := e.SolverScaling([]int{64}, 0.75, SolverScalingOptions{
		Solvers: []string{"bb", "hier", "greedy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PowerW > r.BudgetW+1e-9 {
			t.Errorf("64-core %s: over budget", r.Solver)
		}
		if r.Solver == "bb" && !r.Exact {
			t.Errorf("64-core bb: not exact (nodes=%d)", r.Nodes)
		}
		if r.Solver == "hier" && r.Quality < 0.95 {
			t.Errorf("64-core hier: quality %.4f below 95%%", r.Quality)
		}
	}

	rows, err = e.SolverScaling([]int{1024}, 0.75, SolverScalingOptions{
		Solvers: []string{"hier", "greedy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawHier bool
	for _, r := range rows {
		if r.PowerW > r.BudgetW+1e-9 {
			t.Errorf("1024-core %s: over budget", r.Solver)
		}
		if r.Solver == "hier" {
			sawHier = true
			if r.Quality < 0.95 {
				t.Errorf("1024-core hier: quality %.4f below 95%%", r.Quality)
			}
			if r.Wall > 2*time.Second {
				t.Errorf("1024-core hier: wall %v too slow", r.Wall)
			}
		}
	}
	if !sawHier {
		t.Fatal("1024-core sweep missing hier row")
	}
}
