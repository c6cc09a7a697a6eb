package main

import (
	"fmt"
	"time"

	"gpm/internal/cmpsim"
	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/experiment"
	"gpm/internal/fleet"
	"gpm/internal/fullsim"
	"gpm/internal/metrics"
	"gpm/internal/modes"
	"gpm/internal/obs"
	"gpm/internal/solver"
	"gpm/internal/workload"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"table2-mix", "cyclelevel-8w", "fleet-brownout"}

func newWorkload(name string, seed int64) (workloadRunner, error) {
	switch name {
	case "table2-mix":
		return &table2Mix{cells: genTable2(seed)}, nil
	case "cyclelevel-8w":
		return &cycleLevel{in: genCycle()}, nil
	case "fleet-brownout":
		return &fleetBrownout{seeds: genFleet(seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// profileAll characterizes each distinct benchmark through the environment's
// fresh library, one timed Library.Profile miss per benchmark.
func profileAll(b *bench, env *experiment.Env, combos ...workload.Combo) error {
	seen := map[string]bool{}
	misses := 0
	for _, c := range combos {
		for _, name := range c.Benchmarks {
			if seen[name] {
				continue
			}
			seen[name] = true
			id := b.tr.begin("trace.profile")
			t0 := time.Now()
			_, err := env.Lib.Profile(name)
			d := time.Since(t0)
			b.tr.end(id)
			if err != nil {
				return err
			}
			misses++
			b.ls.profileMs = append(b.ls.profileMs, float64(d.Nanoseconds())/1e6)
		}
	}
	b.ls.profiles = misses
	return nil
}

// baselines runs the all-Turbo reference of each combo.
func baselines(b *bench, env *experiment.Env, combos ...workload.Combo) (map[string]*cmpsim.Result, error) {
	out := map[string]*cmpsim.Result{}
	for _, c := range combos {
		id := b.tr.begin("engine.baseline")
		r, err := env.Baseline(c)
		b.tr.end(id)
		if err != nil {
			return nil, err
		}
		out[c.ID] = r
	}
	return out, nil
}

// countNodes wires a node counter into a solver policy.
func countNodes(p *core.SolverPolicy) *core.SolverPolicy {
	p.NodeCount = new(int64)
	return p
}

func newTable2Policy(name string) core.Policy {
	switch name {
	case "maxbips":
		return core.MaxBIPS{}
	case "greedy":
		return core.GreedyMaxBIPS{}
	case "priority":
		return core.Priority{}
	case "pullhipushlo":
		return core.PullHiPushLo{}
	case "chipwide":
		return core.ChipWideDVFS{}
	case "bb":
		return countNodes(core.NewSolverPolicy(&solver.BB{LexTies: true}))
	}
	panic("unknown table2 policy " + name)
}

// engineOutcome summarizes one engine run against its all-Turbo baseline.
func engineOutcome(res, base *engine.Result) (outcome, error) {
	o := outcome{
		fp:        obs.ResultFingerprint(res),
		simMs:     float64(res.Elapsed.Nanoseconds()) / 1e6,
		lossPct:   100 * metrics.Degradation(res.TotalInstr, base.TotalInstr),
		overshoot: res.OvershootIntervals,
		deltas:    len(res.ChipPowerW),
	}
	if !finite(res.TotalInstr, res.EnergyJ, res.AvgChipPowerW(), o.lossPct) || res.TotalInstr <= 0 || o.deltas == 0 {
		return o, fmt.Errorf("non-finite or empty result: instr=%v energy=%v deltas=%d", res.TotalInstr, res.EnergyJ, o.deltas)
	}
	return o, nil
}

// table2Mix runs every Table 2 4-way and 8-way combo under six policies at
// seeded budgets on the trace substrate.
type table2Mix struct {
	cells []table2Cell
	env   *experiment.Env
	base  map[string]*cmpsim.Result
	// maxbipsModes holds the exhaustive MaxBIPS decisions of the current
	// 8-way group, which the session-BB cell of the group must reproduce.
	maxbipsModes map[int][]modes.Vector
}

func (w *table2Mix) describe() string {
	return fmt.Sprintf("%d cells: %d combos x %d budget strata x %d policies, first budget %.4f",
		len(w.cells), len(table2Combos()), table2Strata, len(table2Policies), w.cells[0].BudgetFrac)
}

func (w *table2Mix) qualifiedTail() bool { return true }

func (w *table2Mix) setup(b *bench) error {
	w.env = experiment.NewEnv(4)
	w.env.Workers = b.workers
	if err := profileAll(b, w.env, table2Combos()...); err != nil {
		return err
	}
	var err error
	w.base, err = baselines(b, w.env, table2Combos()...)
	w.maxbipsModes = map[int][]modes.Vector{}
	return err
}

func (w *table2Mix) ops() int { return len(w.cells) }

func (w *table2Mix) op(b *bench, i int) (outcome, error) {
	cell := w.cells[i]
	base := w.base[cell.Combo.ID]
	pol := newTable2Policy(cell.Policy)
	var pt policyTimer
	if b.tr != nil {
		pt = decorate(pol, b.tr)
		pol = pt
	}
	env := w.env
	res, err := b.driveLoop(func(o engine.Observer) (*engine.Loop, error) {
		return cmpsim.NewLoop(env.Lib, cell.Combo, cmpsim.Options{
			Budget:    cmpsim.FixedBudget(cell.BudgetFrac * base.EnvelopePowerW()),
			Policy:    pol,
			Predictor: env.Predictor(),
			Horizon:   env.Cfg.Sim.Horizon,
			Observer:  o,
		})
	}, pt, cell.Policy, env.Cfg.DeltaPerExplore())
	if err != nil {
		return outcome{}, err
	}
	if cell.Combo.Cores() == 8 {
		switch cell.Policy {
		case "maxbips":
			w.maxbipsModes[cell.Group] = res.Modes
		case "bb":
			want := w.maxbipsModes[cell.Group]
			delete(w.maxbipsModes, cell.Group)
			if err := sameModes(res.Modes, want); err != nil {
				return outcome{}, fmt.Errorf("%s @ %.4f: session BB vs exhaustive MaxBIPS: %w", cell.Combo.ID, cell.BudgetFrac, err)
			}
		}
	}
	return engineOutcome(res, base)
}

func sameModes(got, want []modes.Vector) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d decisions, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("decision %d: %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// cycleWarmInstr is the per-core instruction warm-up before a cycle-level
// run, as in the repository's cross-substrate experiments.
const cycleWarmInstr = 20_000

// cycleLevel runs the cycle-level chip on the 8-way mixed combo under
// session-backed BB at fixed budget levels.
type cycleLevel struct {
	in       cycleInputs
	env      *experiment.Env
	base     *engine.Result
	envelope float64
	starts   []time.Time
}

func (w *cycleLevel) describe() string {
	return fmt.Sprintf("%s, %d intervals, budget levels %.4f (fixed: the seed is not used)", w.in.Combo.ID, len(w.in.Levels), w.in.Levels)
}

// The cycle-level chip completes a few dozen explore intervals in a run,
// too few for a p99 with minBeyond samples past it.
func (w *cycleLevel) qualifiedTail() bool { return false }

// buildChip builds and warms one cycle-level chip.
func (w *cycleLevel) buildChip(b *bench) (*fullsim.Chip, error) {
	id := b.tr.begin("fullsim.build_warm")
	t0 := time.Now()
	ch, err := fullsim.NewWithOptions(w.env.Cfg, w.env.Model, w.env.Plan, w.in.Combo.Benchmarks, 0, nil, fullsim.Options{Workers: b.workers})
	if err == nil {
		ch.Warm(cycleWarmInstr)
	}
	d := time.Since(t0)
	b.tr.end(id)
	b.ls.buildWarmMs = append(b.ls.buildWarmMs, float64(d.Nanoseconds())/1e6)
	return ch, err
}

func (w *cycleLevel) setup(b *bench) error {
	w.env = experiment.NewEnv(w.in.Combo.Cores())
	ch, err := w.buildChip(b)
	if err != nil {
		return err
	}
	id := b.tr.begin("fullsim.baseline")
	w.base, err = ch.Managed(fullsim.ManagedOptions{
		Policy:    core.Fixed{Vector: modes.Uniform(w.in.Combo.Cores(), modes.Turbo)},
		BudgetW:   1e12,
		Intervals: len(w.in.Levels),
	})
	b.tr.end(id)
	if err != nil {
		return err
	}
	w.envelope = w.base.EnvelopePowerW()
	return nil
}

func (w *cycleLevel) ops() int { return 1 }

func (w *cycleLevel) op(b *bench, _ int) (outcome, error) {
	ch, err := w.buildChip(b)
	if err != nil {
		return outcome{}, err
	}
	var pol core.Policy = countNodes(core.NewSolverPolicy(&solver.BB{}))
	var pt policyTimer
	if b.tr != nil {
		pt = decorate(pol, b.tr)
		pol = pt
	}
	explore := w.env.Cfg.Sim.Explore
	levels, envelope := w.in.Levels, w.envelope
	// The engine reads the budget once per decision, at the start of each
	// explore interval: consecutive reads bracket one interval.
	w.starts = w.starts[:0]
	budget := func(t time.Duration) float64 {
		w.starts = append(w.starts, time.Now())
		k := int(t / explore)
		if k >= len(levels) {
			k = len(levels) - 1
		}
		return levels[k] * envelope
	}
	dl := &decisionLog{collect: true}
	if b.tr != nil {
		ls := b.ls
		dl.onDecision = func(decideNs, chainNs int64) {
			ls.decisions++
			ls.fsDecideNs += decideNs
			ls.fsChainNs += chainNs
			ls.recordPolicy("bb", pt, decideNs, chainNs)
		}
	}
	id := b.tr.begin("fullsim.managed")
	t0 := time.Now()
	res, err := ch.Managed(fullsim.ManagedOptions{Policy: pol, Budget: budget, Intervals: len(levels), Observer: dl})
	end := time.Now()
	wall := end.Sub(t0)
	b.tr.end(id)
	if err != nil {
		return outcome{}, err
	}
	if len(w.starts) != len(dl.decideNs) {
		return outcome{}, fmt.Errorf("%d budget reads for %d decisions", len(w.starts), len(dl.decideNs))
	}
	for j, t := range w.starts {
		next := end
		if j+1 < len(w.starts) {
			next = w.starts[j+1]
		}
		b.decideUs = append(b.decideUs, float64(next.Sub(t).Nanoseconds())/1e3)
	}
	for _, ns := range dl.decideNs {
		b.countDeadline(float64(ns) / 1e3)
	}
	if b.tr != nil {
		ls := b.ls
		ls.fsWallNs += wall.Nanoseconds()
		ls.fsInstr += res.TotalInstr
		ls.recordSession(res, true)
	}
	return engineOutcome(res, w.base)
}

// fleetBrownout is the gpmsim fleet scenario: 8 chips serving an interactive
// and a batch cohort while the facility cap is cut from 90% to 65% of the
// summed chip envelopes at mid-run. The seed draws each scenario's arrival
// seed.
type fleetBrownout struct {
	seeds    []int64
	env      *experiment.Env
	envelope float64
	base     *engine.Result
	capTimes []time.Time
}

const (
	fleetChips   = 8
	fleetHorizon = 20 * time.Millisecond
)

func (w *fleetBrownout) describe() string {
	return fmt.Sprintf("%d scenarios of %d chips x %s over %v, first arrival seed %d",
		len(w.seeds), fleetChips, workload.FourWay[0].ID, fleetHorizon, w.seeds[0])
}

func (w *fleetBrownout) qualifiedTail() bool { return true }

func (w *fleetBrownout) setup(b *bench) error {
	w.env = experiment.NewEnv(4)
	combo := workload.FourWay[0]
	if err := profileAll(b, w.env, combo); err != nil {
		return err
	}
	base, err := baselines(b, w.env, combo)
	if err != nil {
		return err
	}
	w.envelope = fleetChips * base[combo.ID].EnvelopePowerW()
	id := b.tr.begin("engine.baseline")
	w.base, err = cmpsim.Run(w.env.Lib, combo, cmpsim.Options{
		Budget:  cmpsim.Unlimited(),
		Policy:  core.Fixed{Vector: modes.Uniform(combo.Cores(), modes.Turbo)},
		Horizon: fleetHorizon,
	})
	b.tr.end(id)
	return err
}

func (w *fleetBrownout) ops() int { return len(w.seeds) }

// config is the gpmsim fleet scenario with the given arrival seed.
func (w *fleetBrownout) config(seed int64, workers int) fleet.Config {
	envelope := w.envelope
	return fleet.Config{
		Chips:   fleetChips,
		Combo:   workload.FourWay[0],
		Horizon: fleetHorizon,
		Seed:    seed,
		Workers: workers,
		Cohorts: []fleet.Cohort{
			{
				Name: "interactive", Clients: 16, Process: "poisson",
				RatePerClient: 3000, CostInstr: 2e5, SLO: 2 * time.Millisecond,
				DiurnalAmp: 0.3, DiurnalPeriod: fleetHorizon,
			},
			{
				Name: "batch", Clients: 8, Process: "gamma", Shape: 2,
				RatePerClient: 1200, CostInstr: 1e6, SLO: fleetHorizon / 2,
				DiurnalPhase: 0.5,
			},
		},
		FacilityCapW: func(now time.Duration) float64 {
			if now < fleetHorizon/2 {
				return 0.90 * envelope
			}
			return 0.65 * envelope
		},
	}
}

func (w *fleetBrownout) op(b *bench, i int) (outcome, error) {
	cfg := w.config(w.seeds[i], b.workers)
	capW := cfg.FacilityCapW
	w.capTimes = w.capTimes[:0]
	epoch := int32(-1)
	// The arbiter reads the facility cap once per epoch, at the epoch
	// boundary, from the goroutine that called Run: consecutive reads
	// bracket one epoch.
	cfg.FacilityCapW = func(now time.Duration) float64 {
		if epoch >= 0 {
			b.tr.end(epoch)
		}
		epoch = b.tr.begin("fleet.epoch")
		w.capTimes = append(w.capTimes, time.Now())
		return capW(now)
	}
	id := b.tr.begin("fleet.run")
	res, err := fleet.Run(w.env.Lib, cfg)
	end := time.Now()
	if epoch >= 0 {
		b.tr.end(epoch)
	}
	b.tr.end(id)
	if err != nil {
		return outcome{}, err
	}
	if len(w.capTimes) != len(res.EpochLog) {
		return outcome{}, fmt.Errorf("%d cap reads for %d epochs", len(w.capTimes), len(res.EpochLog))
	}
	for j, t := range w.capTimes {
		next := end
		if j+1 < len(w.capTimes) {
			next = w.capTimes[j+1]
		}
		b.decideUs = append(b.decideUs, float64(next.Sub(t).Nanoseconds())/1e3)
	}
	o := outcome{fp: fleet.Fingerprint(res), simMs: float64(res.Horizon.Nanoseconds()) / 1e6}
	for _, cs := range res.Cohorts {
		o.sloHit += cs.AttainedSLO
		o.sloN += cs.Arrived
	}
	o.lossPct = 100 * metrics.Degradation(res.TotalInstr, fleetChips*w.base.TotalInstr)
	for _, cr := range res.ChipResults {
		o.overshoot += cr.OvershootIntervals
		o.deltas += len(cr.ChipPowerW)
	}
	if !finite(res.TotalInstr, res.EnergyJ, res.ThroughputRPS, o.lossPct) || o.sloN == 0 || o.deltas == 0 {
		return o, fmt.Errorf("non-finite or empty fleet result: instr=%v arrivals=%d deltas=%d", res.TotalInstr, o.sloN, o.deltas)
	}
	if b.tr != nil {
		ls := b.ls
		for _, e := range res.EpochLog {
			ls.epochs++
			ls.dirtyChips += e.DirtyChips
			if e.SolveSkipped {
				ls.skipped++
			}
		}
		for _, cr := range res.ChipResults {
			ls.chipMemo += cr.Obs.SolverMemoHits
			ls.recordSession(cr, true)
		}
	}
	return o, nil
}
