package solver

import (
	"time"

	"gpm/internal/modes"
)

// maxEnumerable bounds the vector count Exhaustive will attempt; beyond it
// the solver degrades to the greedy heuristic (Exact=false) instead of
// running for hours. 2^31 vectors is already minutes of work.
const maxEnumerable = int64(1) << 31

// bbMinVectors is the modes^cores size from which MaxBIPS runs BB in
// lexicographic-tie mode instead of enumerating. Measured on a 2-CPU Xeon VM
// (go1.24) over 120 random instances per width at budgets of 50–100% of
// all-Turbo power: with 3 modes, enumeration wins at 3^4 = 81 vectors (p50
// 0.8 µs against BB's 1.3 µs), the two tie at 3^5 = 243 (p50 1.9 against
// 1.5 µs, p99 2.9 against 2.7 µs) and BB wins from 3^6 = 729 (p50 8.3
// against 2.2 µs; 8 cores: 96 against 5.2 µs). With 5 modes, 5^4 = 625
// vectors is still a draw (p50 8.4 against 4.5 µs, p99 9.9 against 13.3 µs).
// So the paper's 4-core instances enumerate and its 8-core ones run BB.
const bbMinVectors = 729

// MaxBIPS is the paper's MaxBIPS selection (§5.2.3) with one exact kernel
// per instance size, and the only code that picks between them. It runs
// BB{LexTies: true} when the instance has at least bbMinVectors and at most
// maxEnumerable vectors and its budget and matrices are finite and
// non-negative; otherwise it runs Exhaustive, which also supplies the
// greedy fallback past maxEnumerable. Both kernels return the same vector
// on the instances routed to BB. On NaN, infinite or negative inputs
// Exhaustive's rule (see Exhaustive) can pick a different vector than BB,
// so those instances always enumerate.
func MaxBIPS(in Instance) (modes.Vector, Stats) {
	if total, ok := vectorCount(in); ok && total >= bbMinVectors && nonNegativeFinite(in) {
		return (&BB{LexTies: true}).Solve(in)
	}
	return (&Exhaustive{}).Solve(in)
}

// vectorCount returns modes^cores, or false when it exceeds maxEnumerable.
func vectorCount(in Instance) (int64, bool) {
	m := int64(in.NumModes())
	total := int64(1)
	for c := 0; c < in.NumCores(); c++ {
		if total > maxEnumerable/m {
			return 0, false
		}
		total *= m
	}
	return total, true
}

// nonNegativeFinite reports that the budget and every matrix entry are
// finite and non-negative.
func nonNegativeFinite(in Instance) bool {
	ok := func(x float64) bool { return x >= 0 && finite(x) }
	if !ok(in.BudgetW) {
		return false
	}
	for c := range in.Power {
		for mo := 0; mo < in.NumModes(); mo++ {
			if !ok(in.Power[c][mo]) || !ok(in.Instr[c][mo]) {
				return false
			}
		}
	}
	return true
}

// Exhaustive is the brute-force reference solver: on the calling goroutine
// it scores every modes^cores vector in lexicographic order and keeps the
// highest predicted throughput that fits the budget, preferring lower power
// on equal throughput and the earlier vector on full ties. MaxBIPS runs it
// on small instances and on every instance with non-finite or negative
// entries.
//
// The selection rule is core.MaxBIPS's: a vector fits unless its power
// exceeds the budget (so a NaN power or budget reads as fitting), and the
// incumbent starts as the all-deepest vector scored (−1, 0), so NaN or ≤ −1
// throughput is never chosen over it.
type Exhaustive struct{}

// Name implements Solver.
func (*Exhaustive) Name() string { return "exhaustive" }

// Solve implements Solver.
func (e *Exhaustive) Solve(in Instance) (modes.Vector, Stats) {
	return e.SolveBounded(in, nil)
}

// SolveBounded implements Bounded. A node budget of N scores exactly the
// first N vectors in lexicographic order. Wall deadlines and external
// aborts stop the enumeration at its next checkpoint batch and keep
// whatever it found before the cut.
func (e *Exhaustive) SolveBounded(in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	start := time.Now()
	// Refuse intractable instances: fall back to greedy rather than hang.
	total, ok := vectorCount(in)
	if !ok {
		v, st := Greedy{}.SolveBounded(in, cp)
		st.Solver, st.Elapsed = e.Name(), time.Since(start)
		return v, st
	}
	scan := min(total, cp.nodesLeft())
	v, nodes, aborted := enumerate(in, scan, cp)
	if scan < total {
		cp.Abort() // the node budget is spent, exactly as a Visit trip latches it
		aborted = true
	}
	return v, Stats{Solver: e.Name(), Nodes: nodes, Exact: !aborted,
		Aborted: aborted, Elapsed: time.Since(start)}
}

// enumerate scores the first scan vectors in lexicographic order, core 0
// being the most significant digit, starting from the all-deepest incumbent
// scored (−1, 0). Power and throughput are kept as running prefix sums in
// core order, so each vector costs only the cores the odometer changed and
// every sum is bit-identical to VectorPower/VectorInstr. Nodes are charged
// to the checkpoint in cpBatch batches; a tripped checkpoint stops the walk
// at its current best.
func enumerate(in Instance, scan int64, cp *Checkpoint) (best modes.Vector, nodes int64, aborted bool) {
	n, m := in.NumCores(), in.NumModes()
	buf := make(modes.Vector, 2*n)
	v := buf[:n:n]
	best = buf[n:]
	for c := range best {
		best[c] = modes.Mode(m - 1)
	}
	bestT, bestP := -1.0, 0.0
	var small [2 * 17]float64 // prefix sums for up to 16 cores stay on the stack
	sums := small[:]
	if 2*(n+1) > len(small) {
		sums = make([]float64, 2*(n+1))
	}
	ps, ts := sums[:n+1], sums[n+1:2*(n+1)]
	from := 0 // first core whose prefix sums are stale
	var cpDebt int64
	for nodes < scan {
		nodes++
		if cp != nil {
			if cpDebt++; cpDebt >= cpBatch {
				if cp.Visit(cpDebt) {
					return best, nodes, true
				}
				cpDebt = 0
			}
		}
		for c := from; c < n; c++ {
			ps[c+1] = ps[c] + in.Power[c][v[c]]
			ts[c+1] = ts[c] + in.Instr[c][v[c]]
		}
		if p := ps[n]; !(p > in.BudgetW) && better(ts[n], p, bestT, bestP) {
			bestT, bestP = ts[n], p
			copy(best, v)
		}
		if nodes == scan {
			break
		}
		// Odometer: core 0 never wraps inside the enumeration.
		c := n - 1
		for int(v[c]) == m-1 {
			v[c] = 0
			c--
		}
		v[c]++
		from = c
	}
	return best, nodes, false
}
