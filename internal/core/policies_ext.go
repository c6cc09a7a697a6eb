package core

import (
	"fmt"
	"math"

	"gpm/internal/modes"
)

// StableMaxBIPS is MaxBIPS with switching hysteresis. Interval-to-interval
// workload jitter makes plain MaxBIPS flip modes for marginal predicted
// gains, paying the Table 5 synchronization stall each time. StableMaxBIPS
// keeps the current vector unless the predicted best combination beats it by
// at least Threshold (fractional throughput), or the current vector no
// longer fits the budget.
//
// The policy is stateless with respect to its own history — the comparison
// baseline is ctx.Current — so it composes with the Manager like any other
// policy.
type StableMaxBIPS struct {
	// Threshold is the minimum fractional predicted-throughput gain that
	// justifies a mode switch (default 0.01 when zero).
	Threshold float64
}

// Name implements Policy.
func (p StableMaxBIPS) Name() string { return "StableMaxBIPS" }

// Decide implements Policy.
func (p StableMaxBIPS) Decide(ctx Context) modes.Vector {
	th := p.Threshold
	if th == 0 {
		th = 0.01
	}
	best := selectMaxThroughput(ctx.Plan, ctx.NumCores(), ctx.BudgetW, ctx.Matrices)
	curPower := ctx.Matrices.VectorPower(ctx.Current)
	if curPower > ctx.BudgetW {
		return best // must move: the present assignment violates the budget
	}
	curInstr := ctx.Matrices.VectorInstr(ctx.Current)
	if bestInstr := ctx.Matrices.VectorInstr(best); bestInstr > curInstr*(1+th) {
		return best
	}
	return ctx.Current.Clone()
}

// Fairness maximizes the harmonic mean of predicted per-core speedups
// (relative to each core's own Turbo prediction) subject to the budget —
// the §5.4 weighted-slowdown metric turned into an objective. It trades a
// little aggregate BIPS for balance across threads.
type Fairness struct{}

// Name implements Policy.
func (Fairness) Name() string { return "Fairness" }

// Decide implements Policy.
func (Fairness) Decide(ctx Context) modes.Vector {
	n := ctx.NumCores()
	mx := ctx.Matrices
	deepest := modes.Mode(ctx.Plan.NumModes() - 1)
	best := modes.Uniform(n, deepest)
	bestScore := -1.0
	bestPower := 0.0
	EnumerateVectors(ctx.Plan.NumModes(), n, func(v modes.Vector) bool {
		p := mx.VectorPower(v)
		if p > ctx.BudgetW {
			return true
		}
		// Harmonic mean of per-core speedups vs their own Turbo prediction;
		// completed cores (zero prediction) are excluded.
		var inv float64
		var k int
		for c, m := range v {
			turbo := mx.Instr[c][0]
			if turbo <= 0 {
				continue
			}
			s := mx.Instr[c][m] / turbo
			if s <= 0 {
				return true // a starved live core disqualifies the vector
			}
			inv += 1 / s
			k++
		}
		score := 1.0
		if k > 0 {
			score = float64(k) / inv
		}
		if score > bestScore || (score == bestScore && p < bestPower) {
			bestScore = score
			bestPower = p
			best = v.Clone()
		}
		return true
	})
	return best
}

// Hierarchical is the two-level structure §2 sketches: the global level
// allocates the chip budget across fixed clusters using the cheap greedy
// marginal-utility pass (GreedyMaxBIPS), and each cluster then refines its
// own assignment exhaustively over modes^ClusterSize combinations within
// the share the global level granted it (plus any aggregate slack, offered
// round-robin). Decision cost is O(cores·modes·log cores + numClusters ·
// modes^ClusterSize) instead of modes^cores, making 64-core chips cheap
// while staying near the monolithic optimum.
type Hierarchical struct {
	// ClusterSize is the number of cores per cluster (default 4 when zero).
	ClusterSize int
}

// Name implements Policy.
func (p Hierarchical) Name() string { return fmt.Sprintf("Hierarchical(%d)", p.clusterSize()) }

func (p Hierarchical) clusterSize() int {
	if p.ClusterSize <= 0 {
		return 4
	}
	return p.ClusterSize
}

// Decide implements Policy.
func (p Hierarchical) Decide(ctx Context) modes.Vector {
	n := ctx.NumCores()
	k := p.clusterSize()
	mx := ctx.Matrices
	out := make(modes.Vector, n)

	type cluster struct{ lo, hi int }
	var clusters []cluster
	for lo := 0; lo < n; lo += k {
		hi := lo + k
		if hi > n {
			hi = n
		}
		clusters = append(clusters, cluster{lo, hi})
	}

	solve := func(i int, shareW float64) (modes.Vector, float64) {
		cl := clusters[i]
		sub := Matrices{
			Power: mx.Power[cl.lo:cl.hi],
			Instr: mx.Instr[cl.lo:cl.hi],
		}
		v := selectMaxThroughput(ctx.Plan, cl.hi-cl.lo, shareW, sub)
		return v, sub.VectorPower(v)
	}

	// Global level: a greedy marginal-utility allocation sets how much of
	// the budget each cluster can convert into throughput.
	coarse := (GreedyMaxBIPS{}).Decide(ctx)
	shares := make([]float64, len(clusters))
	var allocated float64
	for i, cl := range clusters {
		for c := cl.lo; c < cl.hi; c++ {
			shares[i] += mx.Power[c][coarse[c]]
		}
		allocated += shares[i]
	}
	headroom := ctx.BudgetW - allocated
	if headroom > 0 {
		// Spread the coarse pass's leftover evenly; the refinement pass
		// below reclaims whatever stays unused.
		for i := range shares {
			shares[i] += headroom / float64(len(shares))
		}
	}

	// Local level: exhaustive refinement within each cluster's share.
	used := make([]float64, len(clusters))
	for i, cl := range clusters {
		v, p := solve(i, shares[i])
		copy(out[cl.lo:cl.hi], v)
		used[i] = p
	}

	// Second pass: clusters rarely spend their exact share (mode power is
	// quantized), so re-offer the aggregate slack to each cluster in turn.
	var spent float64
	for _, p := range used {
		spent += p
	}
	for i, cl := range clusters {
		slack := ctx.BudgetW - spent
		if slack <= 0 {
			break
		}
		v, p := solve(i, used[i]+slack)
		copy(out[cl.lo:cl.hi], v)
		spent += p - used[i]
		used[i] = p
	}
	return out
}

// ScoreVector is a testing/inspection helper: the predicted throughput and
// power of vector v under matrices mx, with NaN protection.
func ScoreVector(mx Matrices, v modes.Vector) (instr, power float64) {
	instr = mx.VectorInstr(v)
	power = mx.VectorPower(v)
	if math.IsNaN(instr) {
		instr = 0
	}
	if math.IsNaN(power) {
		power = 0
	}
	return instr, power
}
