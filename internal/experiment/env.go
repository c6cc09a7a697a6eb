// Package experiment reproduces every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md), plus the
// ablations the paper's discussion motivates. Each experiment is a pure
// function from an Env to a typed result; internal/report renders results.
package experiment

import (
	"fmt"
	"sync"
	"time"

	"gpm/internal/cmpsim"
	"gpm/internal/config"
	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/metrics"
	"gpm/internal/modes"
	"gpm/internal/obs"
	"gpm/internal/pool"
	"gpm/internal/power"
	"gpm/internal/trace"
	"gpm/internal/workload"
)

// DefaultBudgets is the x-axis of the paper's policy curves: 60%–100% of
// maximum chip power in 5% steps.
var DefaultBudgets = []float64{0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00}

// Env bundles the configuration, models, and profile cache shared by all
// experiments.
type Env struct {
	Cfg   config.Config
	Model power.Model
	Plan  modes.Plan
	Lib   *trace.Library

	// Budgets is the sweep used by curve experiments.
	Budgets []float64

	// Observer, when non-nil, receives the structured decision trace of
	// single-policy runs driven through RunPolicyResilient (the `gpmsim run`
	// path). Sweeps and baselines stay unobserved: a sweep would interleave
	// many runs into one trace, which no replay could make sense of.
	Observer engine.Observer

	// Workers bounds the shared worker pool used by sweep fan-outs
	// (budget × policy grids, resilience points, cross-substrate runs) and
	// sizes the cycle-level chips experiments construct. 0 means GOMAXPROCS.
	// Results are deterministic for every value.
	Workers int

	// mu guards baselines: sweeps resolve baselines from pool workers.
	mu sync.Mutex
	// baselines caches all-Turbo reference runs by combo ID.
	baselines map[string]*cmpsim.Result
}

// Manifest describes one observed run for a trace header: substrate identity,
// workload, policy and the timing grid a replay must reproduce.
func (e *Env) Manifest(substrate string, combo workload.Combo, policy, budgetSpec, faultSpec string, guarded bool) *obs.Manifest {
	return &obs.Manifest{
		Tool:             "gpmsim",
		Substrate:        substrate,
		ComboID:          combo.ID,
		Benchmarks:       combo.Benchmarks,
		Policy:           policy,
		Cores:            combo.Cores(),
		DeltaSimNs:       e.Cfg.Sim.DeltaSim.Nanoseconds(),
		DeltasPerExplore: e.Cfg.DeltaPerExplore(),
		ExploreNs:        e.Cfg.Sim.Explore.Nanoseconds(),
		HorizonNs:        e.Cfg.Sim.Horizon.Nanoseconds(),
		BudgetSpec:       budgetSpec,
		FaultSpec:        faultSpec,
		Guarded:          guarded,
	}
}

// NewEnv builds the default environment for n cores.
func NewEnv(n int) *Env {
	cfg := config.Default(n)
	return NewEnvWith(cfg)
}

// NewEnvWith builds an environment from an explicit configuration.
func NewEnvWith(cfg config.Config) *Env {
	model := power.Default()
	plan := modes.Default(cfg.Chip.NominalVdd, cfg.Chip.TransitionRateVPerUs)
	return &Env{
		Cfg:       cfg,
		Model:     model,
		Plan:      plan,
		Lib:       trace.NewLibrary(cfg, model, plan),
		Budgets:   DefaultBudgets,
		baselines: make(map[string]*cmpsim.Result),
	}
}

// Predictor returns the §5.5 predictor with the design-time power scale law.
func (e *Env) Predictor() core.Predictor {
	return core.Predictor{
		Plan:              e.Plan,
		PowerScale:        func(m modes.Mode) float64 { return e.Model.ScaleLaw(e.Plan, m) },
		ExploreSeconds:    e.Cfg.Sim.Explore.Seconds(),
		DerateTransitions: true,
	}
}

// Baseline returns (and caches) the all-Turbo reference run for a combo.
// Safe for concurrent use; a cache miss raced by two workers computes the
// (deterministic) run twice and keeps one copy.
func (e *Env) Baseline(combo workload.Combo) (*cmpsim.Result, error) {
	e.mu.Lock()
	r, ok := e.baselines[combo.ID]
	e.mu.Unlock()
	if ok {
		return r, nil
	}
	r, err := cmpsim.Run(e.Lib, combo, cmpsim.Options{
		Budget:  cmpsim.Unlimited(),
		Policy:  core.Fixed{Vector: modes.Uniform(combo.Cores(), modes.Turbo)},
		Horizon: e.Cfg.Sim.Horizon,
	})
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if prev, ok := e.baselines[combo.ID]; ok {
		r = prev // keep the first copy so pointers stay stable
	} else {
		e.baselines[combo.ID] = r
	}
	e.mu.Unlock()
	return r, nil
}

// Run runs a policy with an arbitrary budget function under the
// environment's horizon.
func (e *Env) Run(combo workload.Combo, policy core.Policy, budget func(time.Duration) float64) (*cmpsim.Result, error) {
	return cmpsim.Run(e.Lib, combo, cmpsim.Options{
		Budget:    budget,
		Policy:    policy,
		Predictor: e.Predictor(),
		Horizon:   e.Cfg.Sim.Horizon,
	})
}

// RunPolicy runs a policy at a budget fraction of the combo's maximum
// all-Turbo chip power.
func (e *Env) RunPolicy(combo workload.Combo, policy core.Policy, budgetFrac float64) (*cmpsim.Result, *cmpsim.Result, error) {
	base, err := e.Baseline(combo)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.Run(combo, policy, cmpsim.FixedBudget(budgetFrac*base.EnvelopePowerW()))
	if err != nil {
		return nil, nil, err
	}
	return res, base, nil
}

// PolicyCurve holds one policy's sweep over budgets for one combo: the
// Fig 4/7/8/9/10 quantities.
type PolicyCurve struct {
	Policy  string
	ComboID string
	// Budgets are fractions of maximum chip power.
	Budgets []float64
	// Degradation[i] is throughput loss vs all-Turbo at Budgets[i].
	Degradation []float64
	// WeightedSlowdown[i] is 1 − harmonic mean of per-thread speedups.
	WeightedSlowdown []float64
	// BudgetFit[i] is average chip power / budget (budget-curve value).
	BudgetFit []float64
	// PowerSaving[i] is 1 − average chip power / all-Turbo average power
	// (the Fig 5 x-axis).
	PowerSaving []float64
}

// Curve sweeps a policy across e.Budgets for a combo, fanning the budget
// points out on the env's worker pool. staticOracle handles the Fixed-vector
// lower bound separately (see static.go).
func (e *Env) Curve(combo workload.Combo, policy core.Policy) (*PolicyCurve, error) {
	cs, err := e.Curves(combo, []core.Policy{policy})
	if err != nil {
		return nil, err
	}
	return cs[0], nil
}

// Curves sweeps several policies across e.Budgets for one combo as a single
// flattened (policy × budget) fan-out on the env's worker pool. Independent
// runs execute concurrently (bounded by Workers); results land in
// deterministic order — policies as given, budgets as in e.Budgets — and are
// bit-identical to the serial sweep for every worker count.
func (e *Env) Curves(combo workload.Combo, policies []core.Policy) ([]*PolicyCurve, error) {
	base, err := e.Baseline(combo)
	if err != nil {
		return nil, err
	}
	nb := len(e.Budgets)
	runs := make([]*cmpsim.Result, len(policies)*nb)
	err = pool.ForEach(e.workers(), len(runs), func(i int) error {
		pol, frac := policies[i/nb], e.Budgets[i%nb]
		res, runErr := e.Run(combo, pol, cmpsim.FixedBudget(frac*base.EnvelopePowerW()))
		if runErr != nil {
			return fmt.Errorf("%s @ %.0f%%: %w", pol.Name(), 100*frac, runErr)
		}
		runs[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*PolicyCurve, len(policies))
	for p, pol := range policies {
		pc := &PolicyCurve{Policy: pol.Name(), ComboID: combo.ID, Budgets: e.Budgets}
		for bi, frac := range e.Budgets {
			if err := pc.append(runs[p*nb+bi], base, frac); err != nil {
				return nil, err
			}
		}
		out[p] = pc
	}
	return out, nil
}

func (pc *PolicyCurve) append(res, base *cmpsim.Result, budgetFrac float64) error {
	pc.Degradation = append(pc.Degradation, metrics.Degradation(res.TotalInstr, base.TotalInstr))
	sp, err := metrics.PerThreadSpeedups(res.PerCoreInstr, base.PerCoreInstr)
	if err != nil {
		return err
	}
	pc.WeightedSlowdown = append(pc.WeightedSlowdown, metrics.WeightedSlowdown(sp))
	pc.BudgetFit = append(pc.BudgetFit, metrics.BudgetFit(res.AvgChipPowerW(), budgetFrac*base.EnvelopePowerW()))
	pc.PowerSaving = append(pc.PowerSaving, 1-res.AvgChipPowerW()/base.AvgChipPowerW())
	return nil
}

// ShortHorizon returns a copy of the environment with a reduced simulation
// horizon — used by tests and quick CLI runs. Profiles are re-characterized
// lazily (the library is shared only when the config matches).
func (e *Env) ShortHorizon(h time.Duration) *Env {
	cfg := e.Cfg
	cfg.Sim.Horizon = h
	out := NewEnvWith(cfg)
	out.Budgets = e.Budgets
	out.Workers = e.Workers
	// Characterization does not depend on the horizon, so the profile cache
	// can be shared.
	out.Lib = e.Lib
	return out
}

// comboForWidth fetches the Table 2 combos for a width with context in the
// error.
func comboForWidth(n int) ([]workload.Combo, error) {
	cs, err := workload.Combos(n)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return cs, nil
}
