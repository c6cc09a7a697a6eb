package cmpsim

import (
	"math"
	"strings"
	"testing"
	"time"

	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/thermal"
)

func TestBudgetValidation(t *testing.T) {
	lib := testLib(t)
	for name, fn := range map[string]func(time.Duration) float64{
		"nan":      func(time.Duration) float64 { return math.NaN() },
		"negative": FixedBudget(-5),
		"midrun": func(now time.Duration) float64 {
			if now >= time.Millisecond {
				return math.NaN()
			}
			return 70
		},
	} {
		_, err := Run(lib, fourWay(), Options{
			Budget:  fn,
			Policy:  core.MaxBIPS{},
			Horizon: 2 * time.Millisecond,
		})
		if err == nil {
			t.Errorf("%s budget accepted", name)
		} else if !strings.Contains(err.Error(), "budget") {
			t.Errorf("%s budget: unhelpful error %q", name, err)
		}
	}
}

// TestTruncatedIntervalAveraging: when the horizon cuts an explore interval
// short, the final interval-average sample must divide by the deltas that
// actually ran, not the nominal per-explore count (which would understate
// power by the truncation ratio).
func TestTruncatedIntervalAveraging(t *testing.T) {
	lib := testLib(t)
	cfg := lib.Config()
	// One full explore interval plus 40% of a second one.
	frac := 4
	horizon := cfg.Sim.Explore + time.Duration(frac)*cfg.Sim.DeltaSim
	res, err := Run(lib, fourWay(), Options{
		Budget:  FixedBudget(70),
		Policy:  core.MaxBIPS{},
		Horizon: horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	per := cfg.DeltaPerExplore()
	if len(res.ChipPowerW) != per+frac {
		t.Fatalf("got %d delta intervals, want %d", len(res.ChipPowerW), per+frac)
	}
	for c := range res.FinalSamples {
		var want float64
		for i := per; i < per+frac; i++ {
			want += res.CorePowerW[i][c]
		}
		want /= float64(frac)
		if got := res.FinalSamples[c].PowerW; math.Abs(got-want) > 1e-12 {
			t.Errorf("core %d final sample %.6f W, want truncated average %.6f W", c, got, want)
		}
	}
}

// TestFaultRunReproducible: identical fault seeds must replay bit-identically
// and different seeds must diverge.
func TestFaultRunReproducible(t *testing.T) {
	lib := testLib(t)
	run := func(seed int64) *Result {
		sc := &fault.Scenario{Seed: seed, PowerNoiseSigma: 0.08, InstrNoiseSigma: 0.03, DropProb: 0.05}
		res, err := Run(lib, fourWay(), Options{
			Budget:  FixedBudget(60),
			Policy:  core.MaxBIPS{},
			Fault:   sc,
			Horizon: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	if len(a.ChipPowerW) != len(b.ChipPowerW) {
		t.Fatalf("series lengths differ: %d vs %d", len(a.ChipPowerW), len(b.ChipPowerW))
	}
	for i := range a.ChipPowerW {
		if a.ChipPowerW[i] != b.ChipPowerW[i] || a.BudgetW[i] != b.BudgetW[i] {
			t.Fatalf("interval %d: %v/%v vs %v/%v", i, a.ChipPowerW[i], a.BudgetW[i], b.ChipPowerW[i], b.BudgetW[i])
		}
	}
	for k := range a.Modes {
		if !a.Modes[k].Equal(b.Modes[k]) {
			t.Fatalf("explore %d: vectors %v vs %v", k, a.Modes[k], b.Modes[k])
		}
	}
	if a.TotalInstr != b.TotalInstr || a.EnergyJ != b.EnergyJ {
		t.Fatal("totals differ between identical seeds")
	}
	c := run(8)
	same := a.TotalInstr == c.TotalInstr && a.EnergyJ == c.EnergyJ
	if same {
		t.Error("different fault seeds produced identical runs")
	}
}

// TestStuckAtLowGuardedVsUnguarded is the headline regression: one core's
// power sensor sticks at a low value, so the §5.5 predictions believe the
// core is nearly free and the policy hands the whole budget to the others.
// The unguarded manager then violates the budget for the rest of the run;
// the guarded manager's emergency throttle must engage within K explore
// intervals and keep the sustained overshoot bounded.
func TestStuckAtLowGuardedVsUnguarded(t *testing.T) {
	lib := testLib(t)
	base, err := Baseline(lib, fourWay())
	if err != nil {
		t.Fatal(err)
	}
	budget := 0.70 * base.MaxChipPowerW()
	faultAt := 2 * time.Millisecond
	horizon := 12 * time.Millisecond
	sc := &fault.Scenario{Stuck: []fault.StuckFault{{Core: 0, PowerW: 0.5, At: faultAt}}}

	run := func(guard *core.GuardConfig) *Result {
		res, err := Run(lib, fourWay(), Options{
			Budget:  FixedBudget(budget),
			Policy:  core.MaxBIPS{},
			Fault:   sc,
			Guard:   guard,
			Horizon: horizon,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	unguarded := run(nil)
	// The guard path under test is the emergency throttle, so disable the
	// chip-sensor cross-check that would repair the samples outright.
	guardCfg := core.DefaultGuard()
	guardCfg.RescaleMismatchFrac = -1
	guarded := run(&guardCfg)

	// The unguarded manager must demonstrably violate the budget after the
	// fault: most post-fault intervals over budget.
	onset := int(faultAt / unguarded.DeltaSim)
	over := 0
	for i := onset; i < len(unguarded.ChipPowerW); i++ {
		if unguarded.ChipPowerW[i] > unguarded.BudgetW[i] {
			over++
		}
	}
	post := len(unguarded.ChipPowerW) - onset
	if frac := float64(over) / float64(post); frac < 0.5 {
		t.Fatalf("unguarded run only violates %d/%d post-fault intervals; fault scenario too weak for the regression", over, post)
	}

	// The guard must engage within K explore intervals of the sustained
	// overshoot and bound the worst sustained excursion.
	if guarded.EmergencyEntries == 0 {
		t.Fatal("guarded run never engaged the emergency throttle")
	}
	k := core.DefaultGuard().OvershootK
	// First post-fault throttled explore interval: find the first all-deepest
	// vector after the fault onset.
	deepest := -1
	exploresPerFault := int(faultAt / lib.Config().Sim.Explore)
	for k2 := exploresPerFault; k2 < len(guarded.Modes); k2++ {
		all := true
		for _, m := range guarded.Modes[k2] {
			if int(m) != lib.Plan().NumModes()-1 {
				all = false
			}
		}
		if all {
			deepest = k2
			break
		}
	}
	if deepest < 0 {
		t.Fatal("guarded run never forced the deepest vector")
	}
	// The stuck sample lands one explore interval after onset; K overshoots
	// later the throttle must be in force (+1 for decision latency).
	if latest := exploresPerFault + k + 2; deepest > latest {
		t.Errorf("emergency throttle first engaged at explore %d, want ≤ %d", deepest, latest)
	}

	if guarded.WorstOvershootWs >= 0.5*unguarded.WorstOvershootWs {
		t.Errorf("guarded worst sustained overshoot %.3g W·s not clearly below unguarded %.3g W·s",
			guarded.WorstOvershootWs, unguarded.WorstOvershootWs)
	}
	t.Logf("unguarded: %d/%d post-fault violations, worst %.3g W·s; guarded: %d entries, worst %.3g W·s, recovery %v",
		over, post, unguarded.WorstOvershootWs, guarded.EmergencyEntries, guarded.WorstOvershootWs, guarded.RecoveryLatency)

	// With the chip-sensor cross-check enabled (default guard) the manager
	// repairs the lying sensor and keeps average power at or under budget.
	repaired := run(&core.GuardConfig{})
	if repaired.RescaledIntervals == 0 {
		t.Error("default guard never cross-checked against the chip sensor")
	}
	if avg := repaired.AvgChipPowerW(); avg > budget*1.05 {
		t.Errorf("cross-checking guard averaged %.1f W against budget %.1f W", avg, budget)
	}
}

// TestCoreDeathParksAndRedistributes: a core dies mid-run; the guarded
// manager must detect it, park it, and keep the chip under budget while the
// survivors absorb the budget share.
func TestCoreDeathParksAndRedistributes(t *testing.T) {
	lib := testLib(t)
	base, err := Baseline(lib, fourWay())
	if err != nil {
		t.Fatal(err)
	}
	budget := 0.80 * base.MaxChipPowerW()
	dieAt := 3 * time.Millisecond
	sc := &fault.Scenario{Deaths: []fault.CoreDeath{{Core: 2, At: dieAt}}}
	res, err := Run(lib, fourWay(), Options{
		Budget:  FixedBudget(budget),
		Policy:  core.MaxBIPS{},
		Fault:   sc,
		Guard:   &core.GuardConfig{},
		Horizon: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeadCores) != 1 || res.DeadCores[0] != 2 {
		t.Fatalf("DeadCores = %v, want [2]", res.DeadCores)
	}
	// The dead core draws nothing after its death.
	onset := int(dieAt / res.DeltaSim)
	for i := onset; i < len(res.CorePowerW); i++ {
		if res.CorePowerW[i][2] != 0 {
			t.Fatalf("dead core drew %.3f W at interval %d", res.CorePowerW[i][2], i)
		}
	}
	// Once parked, the dead core is pinned at the deepest mode.
	lastExplores := res.Modes[len(res.Modes)-3:]
	for _, v := range lastExplores {
		if int(v[2]) != lib.Plan().NumModes()-1 {
			t.Errorf("dead core scheduled in mode %v after detection", v[2])
		}
	}
	// The chip stays under budget on average and survivors keep committing.
	if avg := res.AvgChipPowerW(); avg > budget*1.02 {
		t.Errorf("average power %.1f W over budget %.1f W after core death", avg, budget)
	}
	for i := onset + 100; i < len(res.CoreInstr); i += 50 {
		if res.CoreInstr[i][0] == 0 && res.CoreInstr[i][1] == 0 && res.CoreInstr[i][3] == 0 {
			t.Errorf("all survivors idle at interval %d", i)
		}
	}
}

// TestStepBudgetThermalInteraction (satellite): the effective budget in
// force must be min(step budget, thermal budget) on both sides of the step
// boundary, and the governed temperature must stay bounded near the limit.
func TestStepBudgetThermalInteraction(t *testing.T) {
	lib := testLib(t)
	cfg := lib.Config()
	w1, w2 := 200.0, 30.0
	boundary := 5 * time.Millisecond
	horizon := 10 * time.Millisecond

	params := thermal.Params{
		RthCPerW: 2.5,  // a 20 W core settles 50 °C above ambient: limit binds
		CthJPerC: 8e-4, // τ = 2 ms: several time constants fit the horizon
		AmbientC: 45,
		LimitC:   85,
	}
	st, err := thermal.NewState(params, 4)
	if err != nil {
		t.Fatal(err)
	}
	gov := thermal.NewGovernor(st, cfg.Sim.Explore)
	res, err := Run(lib, fourWay(), Options{
		Budget:  StepBudget(w1, w2, boundary),
		Policy:  core.MaxBIPS{},
		Thermal: gov,
		Horizon: horizon,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The effective budget never exceeds the step component…
	thermalBound := false
	for i := range res.BudgetW {
		now := time.Duration(i) * cfg.Sim.DeltaSim
		step := w1
		if now >= boundary {
			step = w2
		}
		if res.BudgetW[i] > step+1e-9 {
			t.Fatalf("interval %d: effective budget %.2f W above step budget %.2f W", i, res.BudgetW[i], step)
		}
		if now < boundary && res.BudgetW[i] < step-1e-9 {
			thermalBound = true // …and the thermal term binds while w1 is generous
		}
	}
	if !thermalBound {
		t.Error("thermal budget never undercut the 200 W step phase; min() interaction untested")
	}
	// After the drop the cheap step budget must bind (the cooled chip's
	// thermal allowance exceeds 30 W).
	last := res.BudgetW[len(res.BudgetW)-1]
	if math.Abs(last-w2) > 1e-9 {
		t.Errorf("final effective budget %.2f W, want step budget %.2f W", last, w2)
	}

	// Temperature stays monotone-bounded under the cap: once governed, the
	// hottest core may overshoot the limit only by the control margin.
	peak := 0.0
	for _, tc := range res.MaxTempC {
		if tc > peak {
			peak = tc
		}
	}
	if peak > params.LimitC+1 {
		t.Errorf("governed peak temperature %.1f °C exceeds limit %.0f °C", peak, params.LimitC)
	}
	// And after the budget drop the chip cools monotonically (to within
	// integration jitter) — no thermal runaway.
	onset := int(boundary/cfg.Sim.DeltaSim) + 40
	for i := onset + 1; i < len(res.MaxTempC); i++ {
		if res.MaxTempC[i] > res.MaxTempC[i-1]+0.05 {
			t.Errorf("temperature rose %.2f → %.2f °C at interval %d under the reduced budget",
				res.MaxTempC[i-1], res.MaxTempC[i], i)
			break
		}
	}
}

// TestBudgetSpikeAndThermalSensorDeath: a transient budget spike must show
// up in the recorded budget series, and a dead thermal sensor must freeze
// the thermal component at its last reading.
func TestBudgetSpikeAndThermalSensorDeath(t *testing.T) {
	lib := testLib(t)
	sc := &fault.Scenario{
		Spikes: []fault.BudgetSpike{{At: 2 * time.Millisecond, Duration: time.Millisecond, Scale: 0.5}},
	}
	res, err := Run(lib, fourWay(), Options{
		Budget:  FixedBudget(60),
		Policy:  core.MaxBIPS{},
		Fault:   sc,
		Horizon: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.BudgetW {
		now := time.Duration(i) * res.DeltaSim
		// The spike applies at explore granularity (decisions), so compare
		// against the explore interval the delta belongs to.
		decision := now.Truncate(lib.Config().Sim.Explore)
		want := 60.0
		if decision >= 2*time.Millisecond && decision < 3*time.Millisecond {
			want = 30.0
		}
		if math.Abs(res.BudgetW[i]-want) > 1e-9 {
			t.Fatalf("interval %d (t=%v): budget %.1f W, want %.1f W", i, now, res.BudgetW[i], want)
		}
	}

	// Thermal sensor death: governed run vs one whose sensor dies at t=0
	// with a cold chip — the frozen (infinite headroom) reading means the
	// budget never tightens.
	params := thermal.Params{RthCPerW: 2.5, CthJPerC: 8e-4, AmbientC: 45, LimitC: 85}
	mk := func(failAt time.Duration) *Result {
		st, err := thermal.NewState(params, 4)
		if err != nil {
			t.Fatal(err)
		}
		var fsc *fault.Scenario
		if failAt > 0 {
			fsc = &fault.Scenario{ThermalFailAt: failAt}
		}
		r, err := Run(lib, fourWay(), Options{
			Budget:  Unlimited(),
			Policy:  core.MaxBIPS{},
			Thermal: thermal.NewGovernor(st, lib.Config().Sim.Explore),
			Fault:   fsc,
			Horizon: 6 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	healthy := mk(0)
	dead := mk(lib.Config().Sim.Explore) // dies after the first reading
	// The healthy governor tightens the budget as the chip heats; the dead
	// sensor repeats its first (cold, generous) reading forever.
	if hLast, dLast := healthy.BudgetW[len(healthy.BudgetW)-1], dead.BudgetW[len(dead.BudgetW)-1]; dLast <= hLast*1.05 {
		t.Errorf("dead thermal sensor budget %.1f W should stay far above the healthy governor's %.1f W", dLast, hLast)
	}
	if peak := metricsMax(dead.MaxTempC); peak <= params.LimitC {
		t.Logf("note: unthrottled run peaked at %.1f °C (limit %.0f)", peak, params.LimitC)
	}
}

func metricsMax(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
