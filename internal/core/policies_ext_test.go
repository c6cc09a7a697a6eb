package core

import (
	"testing"
	"testing/quick"

	"gpm/internal/modes"
)

func TestStableMaxBIPSHoldsOnMarginalGains(t *testing.T) {
	// Current = one core at Eff1; switching it back to Turbo would gain
	// <1% predicted throughput. StableMaxBIPS must hold; plain MaxBIPS
	// flips.
	cur := modes.Vector{modes.Eff1, modes.Turbo, modes.Turbo, modes.Turbo}
	c := ctx(t, 1000, []float64{17, 20, 20, 20}, []float64{10, 4000, 4000, 4000}, cur)
	stable := StableMaxBIPS{Threshold: 0.01}.Decide(c)
	plain := MaxBIPS{}.Decide(c)
	if !stable.Equal(cur) {
		t.Errorf("StableMaxBIPS moved on a marginal gain: %v", stable)
	}
	if plain.Equal(cur) {
		t.Errorf("test premise broken: plain MaxBIPS should have switched")
	}
}

func TestStableMaxBIPSMovesOnViolationOrBigGain(t *testing.T) {
	// Budget violation forces a move regardless of hysteresis.
	cur := turbo4()
	c := ctx(t, 60, []float64{20, 20, 20, 20}, []float64{1000, 1000, 1000, 1000}, cur)
	v := StableMaxBIPS{}.Decide(c)
	if v.Equal(cur) {
		t.Error("StableMaxBIPS held a budget-violating vector")
	}
	// Large gain: one core parked at Eff2 while throughput-critical.
	cur2 := modes.Vector{modes.Eff2, modes.Turbo, modes.Turbo, modes.Turbo}
	c2 := ctx(t, 1000, []float64{12.3, 20, 20, 20}, []float64{850, 1000, 1000, 1000}, cur2)
	v2 := StableMaxBIPS{}.Decide(c2)
	if v2[0] != modes.Turbo {
		t.Errorf("StableMaxBIPS ignored a large gain: %v", v2)
	}
}

func TestFairnessBalancesSlowdowns(t *testing.T) {
	// Budget forces one step of slowdown somewhere. Core 0's BIPS barely
	// matters to aggregate throughput but equals the others' *relative*
	// loss; fairness should avoid starving any single core more than
	// needed, and the result must fit the budget.
	c := ctx(t, 75, []float64{20, 20, 20, 20}, []float64{100, 1000, 1000, 1000}, turbo4())
	v := Fairness{}.Decide(c)
	if got := c.Matrices.VectorPower(v); got > 75 {
		t.Errorf("fairness over budget: %.1f W", got)
	}
	// Compare worst-core relative slowdown to MaxBIPS's choice.
	worst := func(v modes.Vector) float64 {
		w := 1.0
		for cidx, m := range v {
			s := c.Matrices.Instr[cidx][m] / c.Matrices.Instr[cidx][0]
			if s < w {
				w = s
			}
		}
		return w
	}
	mb := MaxBIPS{}.Decide(c)
	if worst(v) < worst(mb)-1e-9 {
		t.Errorf("fairness worst-core speedup %.3f below MaxBIPS's %.3f", worst(v), worst(mb))
	}
}

func TestHierarchicalMatchesExhaustiveOnUniformDemand(t *testing.T) {
	// With uniform cores, per-cluster shares equal slices of the budget and
	// the hierarchical result should match the flat optimum's throughput.
	c := ctx(t, 144, []float64{20, 20, 20, 20, 20, 20, 20, 20},
		[]float64{1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000}, modes.Uniform(8, modes.Turbo))
	h := NewHierarchical(4).Decide(c)
	f := MaxBIPS{}.Decide(c)
	hi, hp := ScoreVector(c.Matrices, h)
	fi, _ := ScoreVector(c.Matrices, f)
	if hp > 144*1.0001 {
		t.Errorf("hierarchical over budget: %.1f W", hp)
	}
	if hi < fi*0.98 {
		t.Errorf("hierarchical throughput %.0f more than 2%% below flat %.0f", hi, fi)
	}
}

func TestHierarchicalHandlesOddCoreCounts(t *testing.T) {
	cur := modes.Uniform(6, modes.Turbo)
	powers := []float64{20, 25, 15, 20, 20, 20}
	instrs := []float64{500, 900, 300, 700, 800, 600}
	c := ctx(t, 100, powers, instrs, cur)
	v := NewHierarchical(4).Decide(c) // clusters of 4 and 2
	if len(v) != 6 {
		t.Fatalf("vector length %d", len(v))
	}
	if p := c.Matrices.VectorPower(v); p > 100*1.0001 {
		t.Errorf("over budget: %.1f W", p)
	}
}

// Property: hierarchical never exceeds the budget (cluster shares sum to
// exactly the budget and each cluster respects its share).
func TestHierarchicalBudgetProperty(t *testing.T) {
	f := func(pRaw [8]uint8, iRaw [8]uint8, bRaw, kRaw uint8) bool {
		n := 8
		powers := make([]float64, n)
		instrs := make([]float64, n)
		var total float64
		for i := 0; i < n; i++ {
			powers[i] = 10 + float64(pRaw[i]%25)
			instrs[i] = 100 + float64(iRaw[i])*7
			total += powers[i]
		}
		budget := total * (0.60 + float64(bRaw%41)/100)
		k := 2 + int(kRaw%4) // cluster sizes 2..5
		c := ctx(t, budget, powers, instrs, modes.Uniform(n, modes.Turbo))
		v := NewHierarchical(k).Decide(c)
		_, p := ScoreVector(c.Matrices, v)
		if p <= budget*1.0001 {
			return true
		}
		// The only legal overshoot is every cluster stuck at its floor.
		return v.Equal(modes.Uniform(n, modes.Eff2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHierarchicalName(t *testing.T) {
	if got := NewHierarchical(0).Name(); got != "Hierarchical(4)" {
		t.Errorf("default name %q", got)
	}
	if NewHierarchical(8).Name() != "Hierarchical(8)" {
		t.Error("sized name wrong")
	}
	// The registry name is the same cold policy: a SolverPolicy value, which
	// an engine loop never gives a session.
	p, err := Registry("hierarchical")
	if err != nil {
		t.Fatal(err)
	}
	if sp, ok := p.(SolverPolicy); !ok || sp.Name() != "Hierarchical(4)" {
		t.Errorf("Registry(hierarchical) = %T %q, want the cold SolverPolicy Hierarchical(4)", p, p.Name())
	}
}
