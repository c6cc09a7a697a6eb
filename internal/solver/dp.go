package solver

import (
	"math"
	"time"

	"gpm/internal/modes"
)

// DP solves the decision as a pseudo-polynomial multiple-choice knapsack
// over quantized power. Each (core, mode) power entry is rounded UP to a
// multiple of the quantum, so every vector the table admits is feasible
// under the true (unrounded) budget; the price is that solutions whose true
// power lies within cores×quantum of the budget may be missed. The returned
// Stats therefore carry a certified optimality-gap bound computed from the
// fractional relaxation: (OPT − returned) / OPT ≤ GapBound.
//
// Cost is O(cores × modes × budget/quantum) time and O(cores × budget/quantum)
// bytes for the reconstruction table. With the adaptive default quantum the
// table stays ~16 MB even at 1024 cores.
//
// The result is floored at the greedy heuristic's: DP returns whichever of
// (table optimum, greedy) scores better, so DP ≥ greedy always holds and
// quantization can never make the "smarter" solver the worse one.
type DP struct {
	// QuantumW is the power quantum in watts. 0 selects the adaptive
	// default BudgetW / max(2048, 16·cores), which keeps the worst-case
	// quantization loss (cores × quantum) under ~7% of the budget at any
	// scale and under 0.5% for ≤16 cores.
	QuantumW float64
}

// Name implements Solver.
func (*DP) Name() string { return "dp" }

// defaultQuantum returns the adaptive quantum for an instance.
func (d *DP) defaultQuantum(in Instance) float64 {
	denom := 2048
	if 16*in.NumCores() > denom {
		denom = 16 * in.NumCores()
	}
	return in.BudgetW / float64(denom)
}

// Solve implements Solver.
func (d *DP) Solve(in Instance) (modes.Vector, Stats) {
	return d.SolveBounded(in, nil)
}

// dpScratch is a Session's reusable DP table memory: flat weight and choice
// tables plus the two rolling value rows. Reuse is purely an allocation
// saving — every cell the solve reads is rewritten for the new instance
// (resizeFloats zeroes the base-case row; choice cells are written
// unconditionally), so results match fresh tables bit-for-bit.
type dpScratch struct {
	weight []int     // [core*modes + mode] rounded-up weights in quanta
	dp     []float64 // rolling value row, w = 0..W
	ndp    []float64
	choice []uint8 // [core*(W+1) + w] reconstruction table
}

// SolveBounded implements Bounded. The checkpoint is consulted once per
// core row of the table (each row is (budget/quantum+1) × modes cells); an
// aborted solve discards the partial table and returns the greedy answer
// with GapBound 1 — the same anytime fallback the degenerate cases use.
func (d *DP) SolveBounded(in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	return d.solveWith(in, cp, nil)
}

// solveWith is SolveBounded with optional session scratch; sc == nil
// allocates fresh tables (the cold path).
func (d *DP) solveWith(in Instance, cp *Checkpoint, sc *dpScratch) (modes.Vector, Stats) {
	start := time.Now()
	st := Stats{Solver: d.Name()}
	n, m := in.NumCores(), in.NumModes()
	if n == 0 {
		st.Exact = true
		st.Elapsed = time.Since(start)
		return modes.Vector{}, st
	}
	q := d.QuantumW
	if q <= 0 {
		q = d.defaultQuantum(in)
	}
	if q <= 0 || m > 256 {
		// Degenerate budget (≤ 0) or a plan too wide for the uint8
		// reconstruction table: fall back to greedy.
		v, nodes, aborted := greedySolve(in, cp, nil)
		st.Nodes = nodes
		st.GapBound = 1
		st.Aborted = aborted
		st.Elapsed = time.Since(start)
		return v, st
	}
	W := int(in.BudgetW / q)

	if sc == nil {
		sc = &dpScratch{}
	}
	// Rounded-up weights in quanta; entries beyond W can never fit.
	sc.weight = resizeInts(sc.weight, n*m)
	weight := sc.weight
	for c := 0; c < n; c++ {
		row := weight[c*m : (c+1)*m]
		for mo := 0; mo < m; mo++ {
			w := int(math.Ceil(in.Power[c][mo] / q))
			if w < 0 {
				w = 0
			}
			row[mo] = w
		}
	}

	// dp[w] = best throughput over cores 0..c with rounded power ≤ w quanta.
	// The base case must be all-zeros (no cores, no instructions) —
	// resizeFloats guarantees it.
	negInf := math.Inf(-1)
	sc.dp = resizeFloats(sc.dp, W+1)
	sc.ndp = resizeFloats(sc.ndp, W+1)
	sc.choice = resizeBytes(sc.choice, n*(W+1))
	dp, ndp, choice := sc.dp, sc.ndp, sc.choice
	for c := 0; c < n; c++ {
		if cp.Visit(int64(W+1) * int64(m)) {
			// Deadline hit mid-table: the partial table is useless, so fall
			// back to the anytime greedy answer (run unbounded — it is the
			// cheap kernel the caller's own fallback ladder would use).
			v, nodes, _ := greedySolve(in, nil, nil)
			st.Nodes = int64(c)*int64(W+1)*int64(m) + nodes
			st.GapBound = 1
			st.Aborted = true
			st.Elapsed = time.Since(start)
			return v, st
		}
		wrow := weight[c*m : (c+1)*m]
		crow := choice[c*(W+1) : (c+1)*(W+1)]
		for w := 0; w <= W; w++ {
			best, bm := negInf, -1
			for mo := 0; mo < m; mo++ {
				wc := wrow[mo]
				if wc > w {
					continue
				}
				prev := dp[w-wc]
				if math.IsInf(prev, -1) {
					continue
				}
				// Strict > keeps the lowest mode index (fastest level) on
				// value ties, making reconstruction deterministic.
				if cand := prev + in.Instr[c][mo]; cand > best {
					best, bm = cand, mo
				}
			}
			ndp[w] = best
			// Write unconditionally — reused cells may hold a stale choice.
			ch := uint8(0)
			if bm >= 0 {
				ch = uint8(bm)
			}
			crow[w] = ch
		}
		dp, ndp = ndp, dp
	}
	sc.dp, sc.ndp = dp, ndp
	st.Nodes = int64(n) * int64(W+1) * int64(m)

	// Gap certificate from the fractional relaxation.
	f := buildFrontier(in)
	ub := f.bound(in, 0, 0, 0)
	st.UpperBoundInstr = ub

	gv, _, _ := greedySolve(in, nil, nil)
	gp := in.VectorPower(gv)
	gt := in.VectorInstr(gv)

	bestW, bestV := -1, negInf
	for w := 0; w <= W; w++ {
		if dp[w] > bestV { // strict > → smallest capacity (lowest power) wins ties
			bestV, bestW = dp[w], w
		}
	}
	var v modes.Vector
	if bestW < 0 {
		// Not even the all-deepest vector fits the quantized budget.
		v = in.deepestVector()
	} else {
		v = make(modes.Vector, n)
		w := bestW
		for c := n - 1; c >= 0; c-- {
			mo := int(choice[c*(W+1)+w])
			v[c] = modes.Mode(mo)
			w -= weight[c*m+mo]
		}
	}

	// Floor at greedy (both scored canonically): take greedy when the DP
	// fallback is infeasible and greedy is not, or when greedy simply wins.
	vp, vt := in.VectorPower(v), in.VectorInstr(v)
	if vp > in.BudgetW {
		if gp <= in.BudgetW {
			v, vt = gv, gt
		}
	} else if gp <= in.BudgetW && better(gt, gp, vt, vp) {
		v, vt = gv, gt
	}

	if ub > 0 {
		gap := (ub - vt) / ub
		if gap < 0 {
			gap = 0
		}
		st.GapBound = gap
	}
	st.Elapsed = time.Since(start)
	return v, st
}
