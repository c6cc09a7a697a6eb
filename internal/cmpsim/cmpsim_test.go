package cmpsim

import (
	"sync"
	"testing"
	"time"

	"gpm/internal/config"
	"gpm/internal/core"
	"gpm/internal/metrics"
	"gpm/internal/modes"
	"gpm/internal/power"
	"gpm/internal/trace"
	"gpm/internal/workload"
)

// Characterizing benchmarks dominates test wall-clock, so every test shares
// one 4-core library: profiles characterize lazily and cache inside it, the
// library is safe for concurrent use, and players never write their profile.
var (
	libOnce sync.Once
	sharedL *trace.Library
)

func testLib(t testing.TB) *trace.Library {
	t.Helper()
	libOnce.Do(func() {
		cfg := config.Default(4)
		plan := modes.Default(cfg.Chip.NominalVdd, cfg.Chip.TransitionRateVPerUs)
		sharedL = trace.NewLibrary(cfg, power.Default(), plan)
	})
	return sharedL
}

func fourWay() workload.Combo { return workload.FourWay[0] } // ammp,mcf,crafty,art

func TestBaselineRunsToHorizon(t *testing.T) {
	lib := testLib(t)
	res, err := Baseline(lib, fourWay())
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstCompleted != -1 {
		t.Errorf("benchmark %d completed within horizon; baseline should span the full window", res.FirstCompleted)
	}
	if res.Elapsed != lib.Config().Sim.Horizon {
		t.Errorf("elapsed %v, want horizon %v", res.Elapsed, lib.Config().Sim.Horizon)
	}
	if res.TotalInstr <= 0 {
		t.Fatal("no instructions committed")
	}
	if res.TransitionStall != 0 {
		t.Errorf("all-Turbo baseline paid %v of transition stall", res.TransitionStall)
	}
}

func TestPoliciesMeetBudget(t *testing.T) {
	lib := testLib(t)
	base, err := Baseline(lib, fourWay())
	if err != nil {
		t.Fatal(err)
	}
	maxP := base.MaxChipPowerW()
	for _, pol := range []core.Policy{core.MaxBIPS{}, core.Priority{}, core.PullHiPushLo{}, core.ChipWideDVFS{}, core.GreedyMaxBIPS{}} {
		for _, frac := range []float64{0.7, 0.85} {
			res, err := Run(lib, fourWay(), Options{
				Budget: FixedBudget(frac * maxP),
				Policy: pol,
			})
			if err != nil {
				t.Fatalf("%s: %v", pol.Name(), err)
			}
			avg := res.AvgChipPowerW()
			if avg > frac*maxP*1.01 {
				t.Errorf("%s at %.0f%%: average power %.1f W exceeds budget %.1f W", pol.Name(), frac*100, avg, frac*maxP)
			}
			deg := metrics.Degradation(res.TotalInstr, base.TotalInstr)
			if deg < -0.01 || deg > 0.5 {
				t.Errorf("%s at %.0f%%: degradation %.1f%% out of plausible range", pol.Name(), frac*100, deg*100)
			}
			// Throughput-maximizing policies ride the budget boundary, so
			// roughly a quarter of delta intervals can exceed it by the
			// jitter amplitude before the next explore corrects (§5.5); the
			// average (asserted above) is the contract.
			over := float64(res.OvershootIntervals) / float64(len(res.ChipPowerW))
			if over > 0.40 {
				t.Errorf("%s at %.0f%%: %.0f%% of intervals overshoot the budget", pol.Name(), frac*100, over*100)
			}
			t.Logf("%-13s budget %.0f%%: deg %5.2f%%, avg/budget %.2f, overshoot %4.1f%%, stall %v",
				pol.Name(), frac*100, deg*100, avg/(frac*maxP), over*100, res.TransitionStall)
		}
	}
}

func TestMaxBIPSBeatsChipWideAndNearOracle(t *testing.T) {
	lib := testLib(t)
	combo := fourWay()
	base, err := Baseline(lib, combo)
	if err != nil {
		t.Fatal(err)
	}
	maxP := base.MaxChipPowerW()
	run := func(p core.Policy, frac float64) float64 {
		res, err := Run(lib, combo, Options{Budget: FixedBudget(frac * maxP), Policy: p})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		return metrics.Degradation(res.TotalInstr, base.TotalInstr)
	}
	for _, frac := range []float64{0.7, 0.8, 0.9} {
		mb := run(core.MaxBIPS{}, frac)
		cw := run(core.ChipWideDVFS{}, frac)
		or := run(core.Oracle{}, frac)
		t.Logf("budget %.0f%%: maxbips %5.2f%%  chipwide %5.2f%%  oracle %5.2f%%", frac*100, mb*100, cw*100, or*100)
		if mb > cw+0.005 {
			t.Errorf("budget %.0f%%: MaxBIPS (%.2f%%) worse than chip-wide DVFS (%.2f%%)", frac*100, mb*100, cw*100)
		}
		if mb-or > 0.02 {
			t.Errorf("budget %.0f%%: MaxBIPS %.2f%% more than 2%% behind oracle %.2f%%", frac*100, mb*100, or*100)
		}
	}
}

func TestStepBudgetDrops(t *testing.T) {
	lib := testLib(t)
	combo := fourWay()
	base, err := Baseline(lib, combo)
	if err != nil {
		t.Fatal(err)
	}
	maxP := base.MaxChipPowerW()
	drop := 6 * time.Millisecond
	res, err := Run(lib, combo, Options{
		Budget:  StepBudget(0.9*maxP, 0.7*maxP, drop),
		Policy:  core.MaxBIPS{},
		Horizon: 12 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Average power after the drop must respect the lower budget.
	var pre, post, npre, npost float64
	for i, p := range res.ChipPowerW {
		ts := time.Duration(i) * res.DeltaSim
		if ts < drop {
			pre += p
			npre++
		} else {
			post += p
			npost++
		}
	}
	if npre == 0 || npost == 0 {
		t.Fatal("window did not straddle the budget drop")
	}
	pre /= npre
	post /= npost
	if post > 0.7*maxP*1.02 {
		t.Errorf("after drop: avg power %.1f W exceeds 70%% budget %.1f W", post, 0.7*maxP)
	}
	if post >= pre {
		t.Errorf("power did not decrease after budget drop: pre %.1f W, post %.1f W", pre, post)
	}
}
