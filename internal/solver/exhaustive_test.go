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
// power and a NaN budget. BB in lexicographic-tie mode picks differently on
// some of these inputs, so every case also runs through MaxBIPS at its own
// width and padded with idle cores to 8, above bbMinVectors, where MaxBIPS
// must still route it to Exhaustive.
func TestExhaustiveMaxBIPSRule(t *testing.T) {
	nan := math.NaN()
	oneCore := func(budget float64, power, instr []float64) Instance {
		return Instance{Plan: plan3(), BudgetW: budget, Power: [][]float64{power}, Instr: [][]float64{instr}}
	}
	// padded appends idle cores (zero power and throughput in every mode).
	padded := func(in Instance, n int) Instance {
		out := in
		out.Power = append([][]float64(nil), in.Power...)
		out.Instr = append([][]float64(nil), in.Instr...)
		for len(out.Power) < n {
			out.Power = append(out.Power, []float64{0, 0, 0})
			out.Instr = append(out.Instr, []float64{0, 0, 0})
		}
		return out
	}
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
		{"nan-power-block", padded(oneCore(100, []float64{5, nan, 3}, []float64{0, 0, 0}), 8), modes.Vector{2, 0, 0, 0, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		if ref := referenceSolve(tc.in); !ref.Equal(tc.want) {
			t.Fatalf("%s: reference %v, want %v", tc.name, ref, tc.want)
		}
		if got, _ := (&Exhaustive{}).Solve(tc.in); !got.Equal(tc.want) {
			t.Errorf("%s: exhaustive %v, want %v", tc.name, got, tc.want)
		}
		for _, in := range []Instance{tc.in, padded(tc.in, 8)} {
			want := referenceSolve(in)
			got, st := MaxBIPS(in)
			if !got.Equal(want) || st.Solver != "exhaustive" {
				t.Errorf("%s at %d cores: MaxBIPS %v via %s, want %v via exhaustive",
					tc.name, in.NumCores(), got, st.Solver, want)
			}
		}
	}
}
