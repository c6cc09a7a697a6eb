package engine

import (
	"math"
	"strings"
	"testing"
	"time"

	"gpm/internal/config"
	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/modes"
	"gpm/internal/thermal"
)

// fakeSub is a deterministic synthetic substrate: core c draws baseP[c]
// scaled by the mode's V²f power law and commits rate[c] instructions per
// second of execution, frequency-scaled — i.e. its physics match the §5.5
// predictor exactly. It exists so engine tests and benchmarks exercise the
// control loop without trace characterization or cycle-level simulation
// underneath.
type fakeSub struct {
	plan       modes.Plan
	baseP      []float64
	rate       []float64
	exploreSec float64
	// doneAfter[c], when positive, completes core c once it has executed
	// that many seconds.
	doneAfter []float64
	execSec   []float64
}

func newFakeSub(plan modes.Plan, baseP, rate []float64, exploreSec float64) *fakeSub {
	return &fakeSub{
		plan:       plan,
		baseP:      baseP,
		rate:       rate,
		exploreSec: exploreSec,
		doneAfter:  make([]float64, len(baseP)),
		execSec:    make([]float64, len(baseP)),
	}
}

func (s *fakeSub) NumCores() int { return len(s.baseP) }

func (s *fakeSub) Bootstrap() []core.Sample {
	out := make([]core.Sample, len(s.baseP))
	for c := range out {
		out[c] = core.Sample{PowerW: s.baseP[c], Instr: s.rate[c] * s.exploreSec}
	}
	return out
}

func (s *fakeSub) ModePowerW(c int, m modes.Mode) float64 {
	return s.baseP[c] * s.plan.PowerScale(m)
}

func (s *fakeSub) DeltaStep(v modes.Vector, execSec float64, live []bool, energyJ, instr []float64) {
	for c := range live {
		if !live[c] {
			continue
		}
		energyJ[c] = s.baseP[c] * s.plan.PowerScale(v[c]) * execSec
		instr[c] = s.rate[c] * s.plan.FreqScale(v[c]) * execSec
		s.execSec[c] += execSec
	}
}

func (s *fakeSub) Finished(c int) bool {
	return s.doneAfter[c] > 0 && s.execSec[c] >= s.doneAfter[c]
}

func (s *fakeSub) Lookahead() func(c int, m modes.Mode) (float64, float64) {
	return func(c int, m modes.Mode) (float64, float64) {
		return s.baseP[c] * s.plan.PowerScale(m), s.rate[c] * s.plan.FreqScale(m) * s.exploreSec
	}
}

func (s *fakeSub) MemBound() []float64 { return nil }

func testPlan(t testing.TB) modes.Plan {
	t.Helper()
	cfg := config.Default(4)
	return modes.Default(cfg.Chip.NominalVdd, cfg.Chip.TransitionRateVPerUs)
}

func runFake(t testing.TB, sub *fakeSub, opt Options) *Result {
	t.Helper()
	res, err := Run(sub, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// newDecider is NewDecider without a history table, for fixtures whose
// guard settings are known valid.
func newDecider(t testing.TB, plan modes.Plan, policy core.Policy, pred core.MatrixPredictor, n int, guard *core.GuardConfig) Decider {
	t.Helper()
	d, err := NewDecider(plan, policy, pred, n, guard, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestNewDeciderChoices pins the one decider constructor's choices: guard
// selects the resilient manager, history wraps only an analytic predictor,
// and invalid settings are OptionErrors on the field that holds them.
func TestNewDeciderChoices(t *testing.T) {
	plan := testPlan(t)
	pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6}
	if _, guarded := newDecider(t, plan, core.MaxBIPS{}, pred, 4, nil).GuardStats(); guarded {
		t.Error("nil guard built a guarded manager")
	}
	if _, guarded := newDecider(t, plan, core.MaxBIPS{}, pred, 4, &core.GuardConfig{}).GuardStats(); !guarded {
		t.Error("non-nil guard built a plain manager")
	}
	if _, err := NewDecider(plan, core.MaxBIPS{}, pred, 4, nil, &core.HistoryConfig{}); err != nil {
		t.Errorf("history over the analytic predictor: %v", err)
	}
	for field, build := range map[string]func() error{
		"Guard": func() error {
			_, err := NewDecider(plan, core.MaxBIPS{}, pred, 4, &core.GuardConfig{OvershootFrac: math.NaN()}, nil)
			return err
		},
		"History": func() error {
			wrapped := core.NewHistoryPredictor(pred, core.HistoryConfig{})
			_, err := NewDecider(plan, core.MaxBIPS{}, wrapped, 4, nil, &core.HistoryConfig{})
			return err
		},
	} {
		if oe, ok := build().(*OptionError); !ok || oe.Field != field {
			t.Errorf("%s: got %v, want an OptionError on %s", field, build(), field)
		}
	}
}

func baseOptions(t testing.TB, plan modes.Plan, n int, budgetW float64) Options {
	t.Helper()
	pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6}
	return Options{
		Plan:             plan,
		Budget:           func(time.Duration) float64 { return budgetW },
		Decider:          newDecider(t, plan, core.MaxBIPS{}, pred, n, nil),
		DeltaSim:         50 * time.Microsecond,
		DeltasPerExplore: 10,
		Horizon:          2 * time.Millisecond,
	}
}

// --- Satellite: thermal clamp with a sensor dead from birth ------------------

func deadSensorGovernor(t *testing.T) *thermal.Governor {
	t.Helper()
	st, err := thermal.NewState(thermal.Params{RthCPerW: 2.5, CthJPerC: 8e-4, AmbientC: 45, LimitC: 85}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return thermal.NewGovernor(st, 500*time.Microsecond)
}

// TestThermalClampDeadFromBirth is the regression test for the historical
// lastThermalB = +Inf initialization: a thermal sensor that fails before the
// first decision must clamp at the governor's initial (cold-chip) reading,
// not report an infinite allowance and never clamp at all.
func TestThermalClampDeadFromBirth(t *testing.T) {
	gov := deadSensorGovernor(t)
	initial := gov.BudgetW()
	if math.IsInf(initial, 1) || initial <= 0 {
		t.Fatalf("governor initial reading %v not a usable seed", initial)
	}
	inj, err := fault.NewInjector(fault.Scenario{ThermalFailAt: time.Nanosecond}, 4)
	if err != nil {
		t.Fatal(err)
	}
	clamp := NewThermalClamp(gov, inj)
	// Heat the chip far past the limit AFTER construction: a live sensor
	// would now clamp much harder, a dead one repeats the seeded reading,
	// and the old +Inf bug would not clamp at all.
	gov.State().Step([]float64{400, 400, 400, 400}, 50*time.Millisecond)
	st := &Step{Now: time.Millisecond, BudgetW: 1e12}
	if err := clamp.Apply(st); err != nil {
		t.Fatal(err)
	}
	if st.BudgetW != initial {
		t.Errorf("dead-from-birth sensor clamped to %v, want seeded initial reading %v", st.BudgetW, initial)
	}
}

// TestThermalClampTracksLiveSensor checks the no-fault path still follows the
// live governor reading as the chip heats.
func TestThermalClampTracksLiveSensor(t *testing.T) {
	gov := deadSensorGovernor(t)
	clamp := NewThermalClamp(gov, nil)
	st := &Step{BudgetW: 1e12}
	if err := clamp.Apply(st); err != nil {
		t.Fatal(err)
	}
	cold := st.BudgetW
	gov.State().Step([]float64{120, 120, 120, 120}, 20*time.Millisecond)
	st2 := &Step{Now: 20 * time.Millisecond, BudgetW: 1e12}
	if err := clamp.Apply(st2); err != nil {
		t.Fatal(err)
	}
	if st2.BudgetW >= cold {
		t.Errorf("hot-chip clamp %v not below cold-chip clamp %v", st2.BudgetW, cold)
	}
}

// --- Middleware chain --------------------------------------------------------

func TestDefaultChainOrder(t *testing.T) {
	gov := deadSensorGovernor(t)
	inj, err := fault.NewInjector(fault.Scenario{PowerNoiseSigma: 0.05}, 4)
	if err != nil {
		t.Fatal(err)
	}
	budget := func(time.Duration) float64 { return 80 }
	names := func(chain []Stage) string {
		var parts []string
		for _, s := range chain {
			parts = append(parts, s.Name())
		}
		return strings.Join(parts, ",")
	}
	if got := names(DefaultChain(budget, "", inj, gov)); got != "budget,fault-budget,thermal-clamp,fault-observe" {
		t.Errorf("full chain order %q", got)
	}
	if got := names(DefaultChain(budget, "", nil, nil)); got != "budget" {
		t.Errorf("bare chain %q", got)
	}
	if got := names(DefaultChain(budget, "", nil, gov)); got != "budget,thermal-clamp" {
		t.Errorf("thermal-only chain %q", got)
	}
}

func TestBudgetSourceValidation(t *testing.T) {
	for _, bad := range []float64{math.NaN(), -1} {
		src := BudgetSource{Fn: func(time.Duration) float64 { return bad }, ErrPrefix: "fullsim"}
		err := src.Apply(&Step{Now: time.Millisecond})
		if err == nil {
			t.Fatalf("budget %v accepted", bad)
		}
		if !strings.Contains(err.Error(), "fullsim:") || !strings.Contains(err.Error(), "budget") {
			t.Errorf("error %q missing prefix or cause", err)
		}
	}
	src := BudgetSource{Fn: func(time.Duration) float64 { return 55 }}
	st := &Step{}
	if err := src.Apply(st); err != nil || st.BudgetW != 55 {
		t.Errorf("good budget rejected: %v (budget %v)", err, st.BudgetW)
	}
}

// --- Satellite: Result edge cases -------------------------------------------

func TestResultEdgeCases(t *testing.T) {
	empty := &Result{}
	if v := empty.MaxChipPowerW(); v != 0 {
		t.Errorf("empty MaxChipPowerW = %v", v)
	}
	if v := empty.EnvelopePowerW(); v != 0 {
		t.Errorf("empty EnvelopePowerW = %v", v)
	}
	if v := empty.AvgChipPowerW(); v != 0 {
		t.Errorf("empty AvgChipPowerW = %v", v)
	}
	if s := empty.ExploreChipPowerW(10); s != nil {
		t.Errorf("empty ExploreChipPowerW = %v", s)
	}

	single := &Result{
		ChipPowerW: []float64{1, 3, 2},
		CorePowerW: [][]float64{{1}, {3}, {2}},
	}
	if v := single.MaxChipPowerW(); v != 3 {
		t.Errorf("single-core MaxChipPowerW = %v, want 3", v)
	}
	// With one core the envelope IS the peak: the sum over cores of per-core
	// maxima degenerates to the chip maximum.
	if v := single.EnvelopePowerW(); v != 3 {
		t.Errorf("single-core EnvelopePowerW = %v, want 3", v)
	}
	if s := single.ExploreChipPowerW(0); s != nil {
		t.Errorf("non-positive deltasPerExplore accepted: %v", s)
	}

	trunc := &Result{ChipPowerW: []float64{1, 2, 3, 4, 5}}
	got := trunc.ExploreChipPowerW(2)
	want := []float64{1.5, 3.5, 5}
	if len(got) != len(want) {
		t.Fatalf("folded series %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("folded[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// --- Satellite: truncated-interval averaging through the engine path ---------

func TestTruncatedIntervalAveragingEnginePath(t *testing.T) {
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 20, 20, 20}, []float64{4e9, 4e9, 4e9, 4e9}, 500e-6)
	opt := baseOptions(t, plan, 4, 1e12) // unconstrained: vector stays Turbo
	// One full explore interval (10 deltas) plus 4 deltas of a truncated one.
	opt.Horizon = 500*time.Microsecond + 4*50*time.Microsecond
	res := runFake(t, sub, opt)
	if len(res.ChipPowerW) != 14 {
		t.Fatalf("simulated %d deltas, want 14", len(res.ChipPowerW))
	}
	if res.Elapsed != opt.Horizon {
		t.Errorf("elapsed %v, want %v", res.Elapsed, opt.Horizon)
	}
	// Power is constant at Turbo, so a correct truncated average equals the
	// per-delta power; dividing by the nominal 10 deltas would report 0.4×.
	for c, s := range res.FinalSamples {
		if math.Abs(s.PowerW-20) > 1e-9 {
			t.Errorf("core %d final sample %v W, want 20 W (truncated average over 4 deltas)", c, s.PowerW)
		}
	}
}

// TestEngineFirstCompletionStops checks the §5.1 termination rule through the
// engine: the run ends at the first finished core, mid-interval, and the
// truncated interval is still averaged correctly.
func TestEngineFirstCompletionStops(t *testing.T) {
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 25, 20, 20}, []float64{4e9, 4e9, 4e9, 4e9}, 500e-6)
	sub.doneAfter[2] = 720e-6 // completes inside the second explore interval
	opt := baseOptions(t, plan, 4, 1e12)
	res := runFake(t, sub, opt)
	if res.FirstCompleted != 2 {
		t.Errorf("FirstCompleted = %d, want 2", res.FirstCompleted)
	}
	if res.Elapsed >= opt.Horizon {
		t.Errorf("run did not stop early (elapsed %v)", res.Elapsed)
	}
	if res.FinalSamples[2].Done != true {
		t.Error("completed core not marked Done in final samples")
	}
}

// TestEngineMatchesBudget sanity-checks the managed loop end to end on the
// synthetic substrate: a 70% budget forces non-Turbo modes and the average
// power lands at or under the budget.
func TestEngineMatchesBudget(t *testing.T) {
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 20, 20, 20}, []float64{4e9, 3e9, 2e9, 1e9}, 500e-6)
	budget := 0.7 * 80
	opt := baseOptions(t, plan, 4, budget)
	opt.Horizon = 5 * time.Millisecond
	res := runFake(t, sub, opt)
	if res.AvgChipPowerW() > budget*1.02 {
		t.Errorf("avg power %v exceeds budget %v", res.AvgChipPowerW(), budget)
	}
	sawNonTurbo := false
	for _, v := range res.Modes {
		for _, m := range v {
			if m != modes.Turbo {
				sawNonTurbo = true
			}
		}
	}
	if !sawNonTurbo {
		t.Error("manager never left Turbo under a 70% budget")
	}
}
