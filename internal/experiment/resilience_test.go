package experiment

import (
	"hash/fnv"
	"math"
	"testing"

	"gpm/internal/cmpsim"
	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/workload"
)

// fingerprint hashes every numeric series of a Result bit-exactly.
func fingerprint(r *cmpsim.Result) uint64 {
	h := fnv.New64a()
	w := func(f float64) {
		var b [8]byte
		u := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, p := range r.ChipPowerW {
		w(p)
	}
	for i := range r.CorePowerW {
		for c := range r.CorePowerW[i] {
			w(r.CorePowerW[i][c])
			w(r.CoreInstr[i][c])
		}
	}
	for _, b := range r.BudgetW {
		w(b)
	}
	for _, v := range r.Modes {
		for _, m := range v {
			w(float64(m))
		}
	}
	w(r.TotalInstr)
	w(r.EnergyJ)
	w(float64(r.Elapsed))
	w(float64(r.TransitionStall))
	w(float64(r.OvershootIntervals))
	return h.Sum64()
}

// TestRunPolicyGoldenBitIdentical pins RunPolicy to the exact pre-fault-
// framework behaviour: with no injector and no guard configured, every
// series must be bit-identical to the seed tree (fingerprints captured on
// the unmodified simulator, full default horizon, 80% budget).
func TestRunPolicyGoldenBitIdentical(t *testing.T) {
	golden := map[string]uint64{
		"MaxBIPS":       0x80257d1d2291e747,
		"GreedyMaxBIPS": 0xdad01b824d93a696,
		"Priority":      0x1f637f5468c205f5,
	}
	const goldenBase = uint64(0x295c2d3550a2b753)
	e := env(t)
	combo := workload.FourWay[0]
	for _, pol := range []core.Policy{core.MaxBIPS{}, core.GreedyMaxBIPS{}, core.Priority{}} {
		res, base, err := e.RunPolicy(combo, pol, 0.80)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(base); got != goldenBase {
			t.Fatalf("baseline fingerprint %#x, want seed %#x", got, goldenBase)
		}
		if got, want := fingerprint(res), golden[pol.Name()]; got != want {
			t.Errorf("%s: fingerprint %#x, want seed %#x — fault-free behaviour drifted from the seed tree", pol.Name(), got, want)
		}
	}
}

func TestResilienceSweep(t *testing.T) {
	e := quickEnv(t)
	combo := workload.FourWay[0]
	rates := []float64{0, 0.10, 0.25}
	pts, err := e.ResilienceSweep(combo, ResiliencePolicies(), rates, ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ResiliencePolicies()) * len(rates) * 2; len(pts) != want {
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	byKey := map[[2]string]map[float64]ResiliencePoint{}
	for _, p := range pts {
		g := "unguarded"
		if p.Guarded {
			g = "guarded"
		}
		k := [2]string{p.Policy, g}
		if byKey[k] == nil {
			byKey[k] = map[float64]ResiliencePoint{}
		}
		byKey[k][p.FaultRate] = p
		if p.Degradation < -0.05 || p.Degradation > 1 {
			t.Errorf("%s rate %.2f guarded=%v: degradation %.3f out of range", p.Policy, p.FaultRate, p.Guarded, p.Degradation)
		}
		t.Logf("%-13s rate %.2f %-9s deg %6.2f%%  avg/budget %.2f  overshoot %5.1f%%  worst %.3g W·s  sanitized %d",
			p.Policy, p.FaultRate, g, p.Degradation*100, p.AvgPowerW/p.BudgetW, p.OvershootShare*100, p.WorstOvershootWs, p.SanitizedSamples)
	}
	for k, series := range byKey {
		clean, ok := series[0]
		if !ok {
			t.Fatalf("%v: no clean anchor point", k)
		}
		if clean.SanitizedSamples != 0 && k[1] == "unguarded" {
			t.Errorf("%v: clean unguarded run sanitized %d samples", k, clean.SanitizedSamples)
		}
		// At the highest fault rate the guard must be visibly working.
		if k[1] == "guarded" {
			if series[0.25].SanitizedSamples == 0 {
				t.Errorf("%v: guarded run at 25%% faults sanitized nothing", k)
			}
		}
	}
	// The guard's purpose: at high fault rates it bounds the worst
	// sustained violation at or below the unguarded level for each policy.
	for _, pol := range ResiliencePolicies() {
		ug := byKey[[2]string{pol.Name(), "unguarded"}][0.25]
		gd := byKey[[2]string{pol.Name(), "guarded"}][0.25]
		if gd.WorstOvershootWs > ug.WorstOvershootWs*1.25 {
			t.Errorf("%s at 25%% faults: guarded worst overshoot %.3g W·s far above unguarded %.3g W·s",
				pol.Name(), gd.WorstOvershootWs, ug.WorstOvershootWs)
		}
	}
}

// TestResilienceSweepDeterministic: the concurrent sweep must be a pure
// function of its inputs regardless of scheduling.
func TestResilienceSweepDeterministic(t *testing.T) {
	e := quickEnv(t)
	combo := workload.FourWay[0]
	rates := []float64{0.15}
	pols := []core.Policy{core.MaxBIPS{}}
	a, err := e.ResilienceSweep(combo, pols, rates, ResilienceOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.ResilienceSweep(combo, pols, rates, ResilienceOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d differs across schedules:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestResilienceSweepPropagatesErrors: a scenario invalid for the chip
// (stuck fault on a core that does not exist) must surface, not hang.
func TestResilienceSweepPropagatesErrors(t *testing.T) {
	e := quickEnv(t)
	combo := workload.FourWay[0]
	_, err := e.ResilienceSweep(combo, []core.Policy{core.MaxBIPS{}}, []float64{0.1}, ResilienceOptions{
		Scenario: func(rate float64, seed int64) fault.Scenario {
			return fault.Scenario{Stuck: []fault.StuckFault{{Core: 99, PowerW: 1}}}
		},
	})
	if err == nil {
		t.Fatal("invalid scenario did not surface an error")
	}
}

// TestRunPolicyGoldenHierarchical pins the §2 hierarchical manager's full
// control loop on the tiled 8-core Table 2 mix at an 80% budget. The
// fingerprint was captured on the original cluster-refinement code in
// package core, so any rebuild of the policy must reproduce its decisions
// bit for bit.
func TestRunPolicyGoldenHierarchical(t *testing.T) {
	const golden = uint64(0x44a436a378b44e95)
	res, _, err := env(t).RunPolicy(ReplicatedCombo(8), core.NewHierarchical(4), 0.80)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(res); got != golden {
		t.Errorf("Hierarchical(4) fingerprint %#x, want %#x", got, golden)
	}
}
