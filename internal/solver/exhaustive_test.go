package solver

import (
	"math"
	"testing"

	"gpm/internal/modes"
)

// TestExhaustiveMaxBIPSRule pins the exhaustive kernel's selection rule on
// the inputs where the MaxBIPS rule (a vector fits unless its power exceeds
// the budget; the all-deepest incumbent starts at (−1, 0)) differs from a
// "first feasible vector wins" rule: NaN throughput, throughput ≤ −1, NaN
// power and a NaN budget. Every case runs at several worker counts; the
// 7-core case is large enough to shard and puts a NaN-power block across a
// shard boundary.
func TestExhaustiveMaxBIPSRule(t *testing.T) {
	nan := math.NaN()
	oneCore := func(budget float64, power, instr []float64) Instance {
		return Instance{Plan: plan3(), BudgetW: budget, Power: [][]float64{power}, Instr: [][]float64{instr}}
	}
	nanBlock := Instance{Plan: plan3(), BudgetW: 100}
	for c := 0; c < 7; c++ {
		nanBlock.Power = append(nanBlock.Power, []float64{0, 0, 0})
		nanBlock.Instr = append(nanBlock.Instr, []float64{0, 0, 0})
	}
	nanBlock.Power[0] = []float64{5, nan, 3}

	cases := []struct {
		name string
		in   Instance
		want modes.Vector
	}{
		{"nan-throughput-never-chosen", oneCore(100, []float64{30, 20, 10}, []float64{nan, 5, 3}), modes.Vector{1}},
		{"throughput-below-minus-one", oneCore(100, []float64{30, 20, 10}, []float64{-2, -3, -4}), modes.Vector{2}},
		{"minus-one-at-zero-power", oneCore(100, []float64{0, 0, 0}, []float64{-1, -1, -1}), modes.Vector{2}},
		{"minus-one-at-negative-power", oneCore(100, []float64{-1, 5, 10}, []float64{-1, -1, -1}), modes.Vector{0}},
		{"nan-power-fits", oneCore(15, []float64{nan, 20, 10}, []float64{9, 5, 3}), modes.Vector{0}},
		{"nan-budget-all-fit", oneCore(nan, []float64{30, 20, 10}, []float64{9, 5, 3}), modes.Vector{0}},
		{"nan-power-across-shards", nanBlock, modes.Vector{2, 0, 0, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		if ref := referenceSolve(tc.in); !ref.Equal(tc.want) {
			t.Fatalf("%s: reference %v, want %v", tc.name, ref, tc.want)
		}
		for _, workers := range []int{1, 2, 4} {
			got, _ := (&Exhaustive{Workers: workers}).Solve(tc.in)
			if !got.Equal(tc.want) {
				t.Errorf("%s workers=%d: got %v, want %v", tc.name, workers, got, tc.want)
			}
		}
	}
}
