package experiment

import (
	"fmt"
	"time"

	"gpm/internal/core"
	"gpm/internal/modes"
	"gpm/internal/solver"
)

// ---------------------------------------------------------------------------
// A9: solver scaling. The paper's MaxBIPS enumerates modes^cores vectors and
// stops being computable past ~16 cores; the internal/solver subsystem keeps
// the same objective solvable at 64–1024 cores. This sweep measures each
// solver's solution quality (predicted throughput vs the exact reference)
// and wall-clock decision cost across chip widths, on decision instances
// built from the real benchmark characterizations (Table 2 combos tiled
// across the chip, with per-core phase offsets so replicas decorrelate).
// ---------------------------------------------------------------------------

// SolverScalingRow is one (cores, solver) cell of the sweep.
type SolverScalingRow struct {
	Cores  int
	Solver string
	// BudgetW is the instance budget (budgetFrac × all-Turbo power).
	BudgetW float64
	// PowerW and Instr are the returned vector's predicted power and
	// committed instructions for the explore interval.
	PowerW float64
	Instr  float64
	// Quality is Instr over the reference solver's; Reference names it.
	Quality   float64
	Reference string
	// Exact echoes the solver's own certificate.
	Exact bool
	Nodes int64
	// Wall is the measured decision wall-clock.
	Wall time.Duration
}

// SolverScalingOptions tunes the sweep.
type SolverScalingOptions struct {
	// Solvers filters the solver set (default: exhaustive, bb, hier, greedy;
	// exhaustive rows are emitted only up to ExhaustiveMax cores).
	Solvers []string
	// ExhaustiveMax caps the widths the exhaustive reference runs at
	// (default 12; 3^12 ≈ 531k vectors).
	ExhaustiveMax int
	// ClusterSize parameterizes Hier (0 = default).
	ClusterSize int
	// NodeBudget caps branch-and-bound work per decision; 0 selects an
	// adaptive default that keeps ≤64-core instances exact and bounds
	// thousand-core decisions to tens of milliseconds.
	NodeBudget int64
}

func (o SolverScalingOptions) solvers() []string {
	if len(o.Solvers) > 0 {
		return o.Solvers
	}
	return []string{"exhaustive", "bb", "hier", "greedy"}
}

func (o SolverScalingOptions) exhaustiveMax() int {
	if o.ExhaustiveMax > 0 {
		return o.ExhaustiveMax
	}
	return 12
}

func (o SolverScalingOptions) nodeBudget(n int) int64 {
	if o.NodeBudget > 0 {
		return o.NodeBudget
	}
	if n <= 64 {
		return 0 // unlimited: exact in well under 10 ms
	}
	// Per-node bound cost grows with n; shrink the cap so the decision
	// stays bounded. BB reports Exact=false when it hits the cap.
	return int64(400_000_000 / n)
}

// SolverInstance builds the width-n decision instance the sweep solves: the
// §5.5 matrices predicted from the tiled Table 2 benchmark behaviours, each
// replica advanced to a different phase position so the instance is not
// degenerate-symmetric.
func (e *Env) SolverInstance(n int, budgetFrac float64) (solver.Instance, error) {
	combo := ReplicatedCombo(n)
	players, err := e.Lib.Players(combo)
	if err != nil {
		return solver.Instance{}, err
	}
	exploreSec := e.Cfg.Sim.Explore.Seconds()
	in := solver.Instance{
		Plan:  e.Plan,
		Power: make([][]float64, n),
		Instr: make([][]float64, n),
	}
	nm := e.Plan.NumModes()
	var turbo float64
	for c, pl := range players {
		// Deterministic per-core phase offset (coprime stride).
		pl.Advance(modes.Turbo, float64(c%13)*7*exploreSec)
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
	return in, nil
}

// SolverScaling runs the sweep at the given widths and budget fraction.
func (e *Env) SolverScaling(widths []int, budgetFrac float64, opts SolverScalingOptions) ([]SolverScalingRow, error) {
	var rows []SolverScalingRow
	for _, n := range widths {
		in, err := e.SolverInstance(n, budgetFrac)
		if err != nil {
			return nil, err
		}
		type cell struct {
			row SolverScalingRow
			v   modes.Vector
		}
		var cells []cell
		for _, name := range opts.solvers() {
			if name == "exhaustive" && n > opts.exhaustiveMax() {
				continue
			}
			s, err := solver.New(name, solver.Options{
				ClusterSize: opts.ClusterSize,
				NodeLimit:   opts.nodeBudget(n),
			})
			if err != nil {
				return nil, err
			}
			v, st := s.Solve(in)
			cells = append(cells, cell{
				row: SolverScalingRow{
					Cores:   n,
					Solver:  name,
					BudgetW: in.BudgetW,
					PowerW:  in.VectorPower(v),
					Instr:   in.VectorInstr(v),
					Exact:   st.Exact,
					Nodes:   st.Nodes,
					Wall:    st.Elapsed,
				},
				v: v,
			})
		}
		// Reference: the exhaustive row when present, else an exact BB row,
		// else the best throughput any solver achieved.
		ref, refName := 0.0, "best"
		for _, c := range cells {
			if c.row.Solver == "exhaustive" && c.row.Exact {
				ref, refName = c.row.Instr, "exhaustive"
			}
		}
		if refName == "best" {
			for _, c := range cells {
				if c.row.Solver == "bb" && c.row.Exact {
					ref, refName = c.row.Instr, "bb(exact)"
				}
			}
		}
		if refName == "best" {
			for _, c := range cells {
				if c.row.Instr > ref {
					ref = c.row.Instr
				}
			}
		}
		for _, c := range cells {
			if ref > 0 {
				c.row.Quality = c.row.Instr / ref
			}
			c.row.Reference = refName
			rows = append(rows, c.row)
		}
	}
	return rows, nil
}

// SolverCompareDecisions runs one 8-core combo through the CMP simulator
// twice — once under the paper's exhaustive MaxBIPS, once under the
// branch-and-bound solver in lex-tie mode — and reports whether every
// explore-interval decision was bit-identical. It is the subsystem's
// end-to-end equivalence check.
func (e *Env) SolverCompareDecisions(comboIdx int, budgetFrac float64) (identical bool, decisions int, err error) {
	combos, err := comboForWidth(8)
	if err != nil {
		return false, 0, err
	}
	if comboIdx < 0 || comboIdx >= len(combos) {
		return false, 0, fmt.Errorf("experiment: combo index %d out of range", comboIdx)
	}
	combo := combos[comboIdx]
	resA, _, err := e.RunPolicy(combo, core.MaxBIPS{}, budgetFrac)
	if err != nil {
		return false, 0, err
	}
	resB, _, err := e.RunPolicy(combo, core.SolverPolicy{Solver: &solver.BB{LexTies: true}}, budgetFrac)
	if err != nil {
		return false, 0, err
	}
	if len(resA.Modes) != len(resB.Modes) {
		return false, len(resA.Modes), nil
	}
	for i := range resA.Modes {
		if !resA.Modes[i].Equal(resB.Modes[i]) {
			return false, len(resA.Modes), nil
		}
	}
	return true, len(resA.Modes), nil
}
