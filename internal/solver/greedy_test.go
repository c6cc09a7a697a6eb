package solver

import (
	"math"
	"testing"

	"gpm/internal/modes"
)

// scanGreedy is the O(n²·m) reference for the greedy kernel: each pass scans
// every core's single-step upgrade and applies the first one with the best
// ΔBIPS/ΔPower ratio (> −1) that fits the budget.
func scanGreedy(in Instance) modes.Vector {
	n := in.NumCores()
	v := in.deepestVector()
	power := in.VectorPower(v)
	if power > in.BudgetW {
		return v
	}
	for {
		bestCore, bestRatio, bestDP := -1, -1.0, 0.0
		for c := 0; c < n; c++ {
			if v[c] == 0 {
				continue
			}
			up := v[c] - 1
			dp := in.Power[c][up] - in.Power[c][v[c]]
			di := in.Instr[c][up] - in.Instr[c][v[c]]
			if power+dp > in.BudgetW {
				continue
			}
			ratio := di
			if dp > 1e-12 {
				ratio = di / dp
			} else if di > 0 {
				ratio = 1e18
			}
			if ratio > bestRatio {
				bestCore, bestRatio, bestDP = c, ratio, dp
			}
		}
		if bestCore < 0 {
			return v
		}
		v[bestCore]--
		power += bestDP
	}
}

// fuzzEntry maps a byte onto a matrix entry, with hostile values (NaN, ±Inf,
// negatives, zero) well represented.
func fuzzEntry(b byte) float64 {
	switch b % 16 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4, 5:
		return -float64(b / 16)
	}
	return float64(b/16) + float64(b%16)/16
}

// FuzzGreedyKernel pins the heap greedy kernel to the scan reference on
// arbitrary instances: NaN and ±Inf entries, negative ΔP (upgrades that
// free power), and NaN or infinite budgets. The same scratch is reused
// across two solves, as a Session does.
func FuzzGreedyKernel(f *testing.F) {
	f.Add([]byte{3, 40, 30, 20, 50, 40, 30, 60, 50, 40, 70, 60, 50, 90})
	f.Add([]byte{4, 0, 30, 20, 50, 40, 30, 1, 50, 40, 70, 2, 50, 90, 7})
	f.Add([]byte{5, 24, 40, 60, 200, 150, 100, 40, 24, 60, 210, 160, 90, 0})
	f.Add([]byte{8, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]%8) + 1
		m := plan3().NumModes()
		need := 2*n*m + 1
		body := data[1:]
		if len(body) == 0 {
			return
		}
		at := func(i int) byte { return body[i%len(body)] + byte(i/len(body)) }
		in := Instance{Plan: plan3(), Power: make([][]float64, n), Instr: make([][]float64, n)}
		k := 0
		for c := 0; c < n; c++ {
			in.Power[c] = make([]float64, m)
			in.Instr[c] = make([]float64, m)
			for mo := 0; mo < m; mo++ {
				in.Power[c][mo] = fuzzEntry(at(k))
				in.Instr[c][mo] = fuzzEntry(at(k + 1))
				k += 2
			}
		}
		in.BudgetW = fuzzEntry(at(need-1)) * float64(n)

		var g greedyScratch
		for round := 0; round < 2; round++ {
			want := scanGreedy(in)
			got, _, aborted := greedySolve(in, nil, &g)
			if aborted || !got.Equal(want) {
				t.Fatalf("round %d: heap %v (aborted %v) != scan %v\npower %v\ninstr %v\nbudget %v",
					round, got, aborted, want, in.Power, in.Instr, in.BudgetW)
			}
			// Second round: a different budget over the same rows.
			in.BudgetW = fuzzEntry(at(need)) * float64(n)
		}
	})
}
