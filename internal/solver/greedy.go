package solver

import (
	"time"

	"gpm/internal/modes"
)

// Greedy is the marginal-utility heuristic (core.GreedyMaxBIPS runs it):
// start from the all-deepest vector and repeatedly apply the single-core,
// single-step upgrade with the best ΔBIPS/ΔPower ratio that still fits the
// budget. Ties on the ratio resolve to the lowest core index. The kernel
// keeps one pending upgrade per core in a max-heap, so a solve costs
// O(cores × modes × log cores).
type Greedy struct{}

// Name implements Solver.
func (Greedy) Name() string { return "greedy" }

// Solve implements Solver.
func (g Greedy) Solve(in Instance) (modes.Vector, Stats) {
	return g.SolveBounded(in, nil)
}

// SolveBounded implements Bounded.
func (g Greedy) SolveBounded(in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	return g.solveWith(in, cp, nil)
}

// solveWith runs the kernel on a Session's reusable scratch (nil allocates).
func (g Greedy) solveWith(in Instance, cp *Checkpoint, gs *greedyScratch) (modes.Vector, Stats) {
	start := time.Now()
	v, nodes, aborted := greedySolve(in, cp, gs)
	return v, Stats{Solver: g.Name(), Nodes: nodes, Aborted: aborted, Elapsed: time.Since(start)}
}

// upgradeDelta scores the single-step upgrade of core c from mode cur to
// cur−1: the power delta and the ΔBIPS/ΔPower ratio (near-zero ΔPower with
// positive ΔBIPS reads as free throughput).
func upgradeDelta(in Instance, c int, cur modes.Mode) (dp, ratio float64) {
	up := cur - 1
	dp = in.Power[c][up] - in.Power[c][cur]
	di := in.Instr[c][up] - in.Instr[c][cur]
	ratio = di
	if dp > 1e-12 {
		ratio = di / dp
	} else if di > 0 {
		ratio = 1e18 // free throughput
	}
	return dp, ratio
}

// greedyScratch is the kernel's reusable state. Each core has at most one
// pending candidate, queued or stashed, so one n-slot buffer holds both: the
// heap grows from the front (heap aliases buf[:len(heap)]) and the stash
// from the back.
type greedyScratch struct {
	v    modes.Vector
	buf  []gcand
	heap []gcand
}

// gcand is one core's pending single-step upgrade.
type gcand struct {
	ratio float64
	dp    float64
	core  int32
}

// candLess orders the candidate heap: higher ratio first, lower core on
// ties. Only ratios > −1 are ever pushed, so the order is total.
func candLess(a, b gcand) bool {
	if a.ratio != b.ratio {
		return a.ratio > b.ratio
	}
	return a.core < b.core
}

func (g *greedyScratch) push(c gcand) {
	g.heap = append(g.heap, c)
	i := len(g.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !candLess(g.heap[i], g.heap[p]) {
			break
		}
		g.heap[i], g.heap[p] = g.heap[p], g.heap[i]
		i = p
	}
}

func (g *greedyScratch) pop() gcand {
	h := g.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	g.heap = h
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		c := l
		if r := l + 1; r < len(h) && candLess(h[r], h[l]) {
			c = r
		}
		if !candLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// offer queues core c's next upgrade unless it can never be chosen: an
// upgrade is only taken when its ratio beats −1, and a NaN ratio beats
// nothing. A core's candidate only changes when that core is upgraded, so a
// dropped candidate stays out for good.
func (g *greedyScratch) offer(c int, dp, ratio float64) {
	if ratio > -1 {
		g.push(gcand{ratio: ratio, dp: dp, core: int32(c)})
	}
}

// greedySolve is the greedy kernel; Greedy, BB's incumbent seed, Hier's
// demand shares and Exhaustive's intractable fallback all run it. Each step takes the best (ratio desc, core asc) candidate that fits
// the budget — !(power+ΔP > budget), so NaN comparisons read as fitting.
// Candidates that do not fit are stashed; with chip power non-decreasing
// (float addition is monotone) they cannot fit later, so the stash is only
// re-queued when an applied upgrade fails to raise chip power (a negative
// ΔP, or a NaN sum). The checkpoint is charged per step; an aborted solve
// returns the vector built so far and reports this solve's own trip, not
// the shared checkpoint's latched flag. The returned vector aliases g.v.
func greedySolve(in Instance, cp *Checkpoint, g *greedyScratch) (_ modes.Vector, nodes int64, aborted bool) {
	if g == nil {
		g = new(greedyScratch)
	}
	n := in.NumCores()
	if cap(g.v) < n {
		g.v = make(modes.Vector, n)
		g.buf = make([]gcand, n)
	}
	g.v = g.v[:n]
	v := g.v
	deep := modes.Mode(in.NumModes() - 1)
	for c := range v {
		v[c] = deep
	}
	power := in.VectorPower(v)
	if power > in.BudgetW {
		return v, 0, false // even the floor exceeds the budget
	}
	g.heap = g.buf[:0:n]
	stash := n // the stash is g.buf[stash:n]
	for c := 0; c < n; c++ {
		if v[c] > 0 {
			nodes++
			dp, ratio := upgradeDelta(in, c, v[c])
			g.offer(c, dp, ratio)
		}
	}
	if cp.Visit(nodes) {
		return v, nodes, true
	}
	for {
		var examined int64
		sel := gcand{core: -1}
		for len(g.heap) > 0 {
			top := g.pop()
			examined++
			if power+top.dp > in.BudgetW {
				stash--
				g.buf[stash] = top
				continue
			}
			sel = top
			break
		}
		nodes += examined
		if cp.Visit(examined) {
			return v, nodes, true
		}
		if sel.core < 0 {
			return v, nodes, false
		}
		c := int(sel.core)
		v[c]--
		old := power
		power += sel.dp
		for ; !(power >= old) && stash < n; stash++ {
			g.push(g.buf[stash])
		}
		if v[c] > 0 {
			nodes++
			dp, ratio := upgradeDelta(in, c, v[c])
			g.offer(c, dp, ratio)
		}
	}
}
