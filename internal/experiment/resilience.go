package experiment

import (
	"fmt"

	"gpm/internal/cmpsim"
	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/metrics"
	"gpm/internal/pool"
	"gpm/internal/workload"
)

// ---------------------------------------------------------------------------
// R1: resilience sweep. The paper's manager assumes perfect per-core
// telemetry; this experiment measures how each policy degrades as that
// assumption erodes. A scaled fault profile (sensor noise, counter noise,
// sample dropout) is injected at increasing rates, with and without the
// ResilientManager guard, producing degradation-vs-fault-rate curves and
// budget-violation measures for MaxBIPS/Greedy/Priority.
// ---------------------------------------------------------------------------

// DefaultFaultProfile maps a scalar fault rate onto a mixed sensor-fault
// scenario: power noise at the rate, counter noise at half, dropout at a
// quarter. Rate 0 disables injection entirely (the clean anchor point).
func DefaultFaultProfile(rate float64, seed int64) fault.Scenario {
	return fault.Scenario{
		Seed:            seed,
		PowerNoiseSigma: rate,
		InstrNoiseSigma: rate / 2,
		DropProb:        rate / 4,
	}
}

// ResilienceOptions tunes the sweep.
type ResilienceOptions struct {
	// BudgetFrac is the budget as a fraction of the combo's envelope power.
	// Default 0.80.
	BudgetFrac float64
	// Guard configures the ResilientManager for the guarded arm of each
	// point; zero fields select defaults.
	Guard core.GuardConfig
	// Seed is the base PRNG seed; each sweep point derives its own from it
	// so points are independent but the sweep is reproducible. Default 1.
	Seed int64
	// Scenario maps (rate, seed) to the injected scenario. Default
	// DefaultFaultProfile.
	Scenario func(rate float64, seed int64) fault.Scenario
	// Parallel bounds concurrent simulations. Default Env.Workers
	// (itself defaulting to GOMAXPROCS).
	Parallel int
}

// ResiliencePoint is one (policy, fault rate, guarded?) measurement.
type ResiliencePoint struct {
	Policy    string
	FaultRate float64
	Guarded   bool
	// Degradation is throughput loss vs the fault-free all-Turbo baseline.
	Degradation float64
	AvgPowerW   float64
	BudgetW     float64
	// OvershootShare is the fraction of delta intervals over budget.
	OvershootShare float64
	// WorstOvershootWs is the worst sustained budget violation.
	WorstOvershootWs float64
	EmergencyEntries int
	SanitizedSamples int
	DeadCores        int
}

// ResilienceSweep runs every (policy × rate × {unguarded, guarded})
// combination concurrently and returns the points in deterministic order:
// policies outermost, rates inner, unguarded before guarded.
func (e *Env) ResilienceSweep(combo workload.Combo, policies []core.Policy, rates []float64, opts ResilienceOptions) ([]ResiliencePoint, error) {
	if opts.BudgetFrac == 0 {
		opts.BudgetFrac = 0.80
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Scenario == nil {
		opts.Scenario = DefaultFaultProfile
	}
	if opts.Parallel <= 0 {
		opts.Parallel = e.workers()
	}
	// Resolve the baseline up front: Env's cache is not synchronized, and
	// every worker needs the same reference anyway.
	base, err := e.Baseline(combo)
	if err != nil {
		return nil, err
	}
	budget := opts.BudgetFrac * base.EnvelopePowerW()

	type job struct {
		policy  core.Policy
		rate    float64
		rateIdx int
		guarded bool
	}
	var jobs []job
	for _, pol := range policies {
		for ri, rate := range rates {
			for _, guarded := range []bool{false, true} {
				jobs = append(jobs, job{policy: pol, rate: rate, rateIdx: ri, guarded: guarded})
			}
		}
	}

	// Fan out on the shared bounded pool (at most opts.Parallel goroutines
	// total, not one per job); indexed writes keep the point order
	// deterministic.
	points := make([]ResiliencePoint, len(jobs))
	err = pool.ForEach(opts.Parallel, len(jobs), func(i int) error {
		j := jobs[i]
		sc := opts.Scenario(j.rate, opts.Seed+int64(j.rateIdx))
		opt := cmpsim.Options{
			Budget:    cmpsim.FixedBudget(budget),
			Policy:    j.policy,
			Predictor: e.Predictor(),
			Horizon:   e.Cfg.Sim.Horizon,
			Fault:     &sc,
		}
		if j.guarded {
			g := opts.Guard
			opt.Guard = &g
		}
		res, err := cmpsim.Run(e.Lib, combo, opt)
		if err != nil {
			return fmt.Errorf("%s rate %.2f guarded=%v: %w", j.policy.Name(), j.rate, j.guarded, err)
		}
		share := 0.0
		if len(res.ChipPowerW) > 0 {
			share = float64(res.OvershootIntervals) / float64(len(res.ChipPowerW))
		}
		points[i] = ResiliencePoint{
			Policy:           j.policy.Name(),
			FaultRate:        j.rate,
			Guarded:          j.guarded,
			Degradation:      metrics.Degradation(res.TotalInstr, base.TotalInstr),
			AvgPowerW:        res.AvgChipPowerW(),
			BudgetW:          budget,
			OvershootShare:   share,
			WorstOvershootWs: res.WorstOvershootWs,
			EmergencyEntries: res.EmergencyEntries,
			SanitizedSamples: res.SanitizedSamples,
			DeadCores:        len(res.DeadCores),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// ResiliencePolicies is the default policy set for the sweep.
func ResiliencePolicies() []core.Policy {
	return []core.Policy{core.MaxBIPS{}, core.GreedyMaxBIPS{}, core.Priority{}}
}

// RunPolicyResilient is RunPolicy with a fault scenario and optional guard:
// it runs the policy at a budget fraction of the combo's envelope power,
// injecting sc (nil for none) and guarding with guard (nil for the plain
// manager), and returns the run alongside the fault-free all-Turbo baseline.
func (e *Env) RunPolicyResilient(combo workload.Combo, policy core.Policy, budgetFrac float64, sc *fault.Scenario, guard *core.GuardConfig) (*cmpsim.Result, *cmpsim.Result, error) {
	base, err := e.Baseline(combo)
	if err != nil {
		return nil, nil, err
	}
	res, err := cmpsim.Run(e.Lib, combo, cmpsim.Options{
		Budget:    cmpsim.FixedBudget(budgetFrac * base.EnvelopePowerW()),
		Policy:    policy,
		Predictor: e.Predictor(),
		Horizon:   e.Cfg.Sim.Horizon,
		Fault:     sc,
		Guard:     guard,
		Observer:  e.Observer,
	})
	if err != nil {
		return nil, nil, err
	}
	return res, base, nil
}
