package solver

import (
	"math"
	"slices"
	"sort"
	"time"

	"gpm/internal/modes"
)

// BB is an exact branch-and-bound solver. It branches on cores in index
// order (mode 0 first, so leaves are reached in lexicographic order), seeds
// its incumbent with the greedy heuristic, and prunes with two tests:
//
//   - feasibility: prefix power plus the suffix's minimum power already
//     exceeds the budget;
//   - bound: the fractional relaxation — each undecided core may take any
//     convex combination of its efficient (power, instr) points — cannot
//     beat the incumbent. The relaxation is solved in closed form by
//     water-filling the remaining budget over the per-core convex-hull
//     segments in decreasing ΔBIPS/ΔW order.
//
// Leaves are scored with canonical core-order sums, so an accepted vector's
// (throughput, power) is bit-identical to the exhaustive kernel's score of
// the same vector.
type BB struct {
	// NodeLimit caps branch nodes; 0 means unlimited. When exceeded, BB
	// returns its incumbent with Exact=false (an anytime cutoff for
	// thousand-core instances).
	NodeLimit int64
	// LexTies makes BB reproduce the exhaustive kernel bit-for-bit: pruning
	// keeps subtrees that merely *tie* the incumbent's throughput, so among
	// equal-(throughput, power) optima the lexicographically smallest
	// vector survives, exactly as lexicographic enumeration with strict
	// improvement would pick. The default prunes ties, which preserves the
	// optimal value but may return a different representative on exact
	// ties; symmetric instances (replicated cores) then branch far less.
	LexTies bool
}

// Name implements Solver.
func (*BB) Name() string { return "bb" }

// frontier is the precomputed relaxation machinery for one instance. Its
// slices double as reusable scratch: a Session rebuilds the same frontier
// value every interval without allocating.
type frontier struct {
	// finite records that build saw a finite budget and finite matrices,
	// and so used the allocation-free sorts.
	finite bool
	// baseP/baseI are each core's minimum-power efficient point.
	baseP, baseI []float64
	// sufP/sufI[c] sum baseP/baseI over cores c..n-1 (sufP[n] == 0).
	sufP, sufI []float64
	// segs are all cores' hull segments, sorted by decreasing ΔI/ΔP.
	segs []segment
	// pts/hull are per-core sort scratch for build.
	pts, hull []hullPt
}

type segment struct {
	core   int
	dP, dI float64
	ratio  float64
	// seq is the pre-sort emission index; the fast sort uses it as the final
	// tiebreak so its order equals the reference stable sort exactly.
	seq int32
}

type hullPt struct{ p, i float64 }

// build computes per-core efficient frontiers (upper-left convex hulls of
// the (power, instr) mode points) and the suffix aggregates the bound needs,
// filling f in place and reusing its buffers.
//
// Finite instances use allocation-free sorts: insertion sort for the
// per-core mode points and slices.SortFunc (with the seq tiebreak) for the
// global segment order. Both produce exactly the reference sort.Slice /
// sort.SliceStable order on finite keys: point ties are value-identical
// duplicates, and the segment comparator extended by seq is a total order
// whose restriction to (ratio, core) matches sort.SliceStable's stable tie
// handling. NaN keys have no total order, so non-finite instances keep the
// reference sorts.
func (f *frontier) build(in Instance) {
	f.finite = finiteInstance(in)
	n, m := in.NumCores(), in.NumModes()
	f.baseP = resizeFloats(f.baseP, n)
	f.baseI = resizeFloats(f.baseI, n)
	f.sufP = resizeFloats(f.sufP, n+1)
	f.sufI = resizeFloats(f.sufI, n+1)
	f.segs = f.segs[:0]
	for c := 0; c < n; c++ {
		pts := f.pts[:0]
		for mo := 0; mo < m; mo++ {
			pts = append(pts, hullPt{in.Power[c][mo], in.Instr[c][mo]})
		}
		if f.finite {
			// Insertion sort by (p asc, i desc): m is small and the keys are
			// finite, so this matches sort.Slice's order (ties are
			// value-identical points).
			for a := 1; a < len(pts); a++ {
				q := pts[a]
				b := a - 1
				for b >= 0 && (pts[b].p > q.p || (pts[b].p == q.p && pts[b].i < q.i)) {
					pts[b+1] = pts[b]
					b--
				}
				pts[b+1] = q
			}
		} else {
			sort.Slice(pts, func(a, b int) bool {
				if pts[a].p != pts[b].p {
					return pts[a].p < pts[b].p
				}
				return pts[a].i > pts[b].i
			})
		}
		f.pts = pts
		// Drop dominated points (≥ power for ≤ instr), then keep the concave
		// hull: slopes must strictly decrease left to right.
		hull := f.hull[:0]
		for _, q := range pts {
			if len(hull) > 0 && q.i <= hull[len(hull)-1].i {
				continue // dominated (incl. equal-power duplicates)
			}
			for len(hull) >= 2 {
				a, b := hull[len(hull)-2], hull[len(hull)-1]
				// Pop b if the a→q slope is at least the a→b slope.
				if (q.i-a.i)*(b.p-a.p) >= (b.i-a.i)*(q.p-a.p) {
					hull = hull[:len(hull)-1]
				} else {
					break
				}
			}
			hull = append(hull, q)
		}
		f.hull = hull
		f.baseP[c] = hull[0].p
		f.baseI[c] = hull[0].i
		for k := 1; k < len(hull); k++ {
			dP := hull[k].p - hull[k-1].p
			dI := hull[k].i - hull[k-1].i
			f.segs = append(f.segs, segment{
				core: c, dP: dP, dI: dI, ratio: dI / dP, seq: int32(len(f.segs)),
			})
		}
	}
	for c := n - 1; c >= 0; c-- {
		f.sufP[c] = f.sufP[c+1] + f.baseP[c]
		f.sufI[c] = f.sufI[c+1] + f.baseI[c]
	}
	if f.finite {
		slices.SortFunc(f.segs, func(a, b segment) int {
			if a.ratio != b.ratio {
				if a.ratio > b.ratio {
					return -1
				}
				return 1
			}
			if a.core != b.core {
				if a.core < b.core {
					return -1
				}
				return 1
			}
			return int(a.seq - b.seq)
		})
	} else {
		sort.SliceStable(f.segs, func(a, b int) bool {
			if f.segs[a].ratio != f.segs[b].ratio {
				return f.segs[a].ratio > f.segs[b].ratio
			}
			return f.segs[a].core < f.segs[b].core
		})
	}
}

// bound returns a throughput upper bound for completions of a prefix that
// has fixed cores 0..c-1 at (usedP, usedI), or -Inf when no completion can
// fit the budget. The result is inflated by a tiny relative slack so float
// associativity differences can never prune a genuinely optimal leaf.
func (f *frontier) bound(in Instance, c int, usedP, usedI float64) float64 {
	slack := in.BudgetW - usedP - f.sufP[c]
	if slack < -in.budgetEps() {
		return math.Inf(-1)
	}
	if slack < 0 {
		slack = 0
	}
	ub := usedI + f.sufI[c]
	for _, s := range f.segs {
		if s.core < c {
			continue
		}
		if s.dP <= slack {
			ub += s.dI
			slack -= s.dP
		} else {
			ub += s.dI * slack / s.dP
			break
		}
	}
	return ub + 1e-9*(1+math.Abs(ub))
}

// Solve implements Solver.
func (b *BB) Solve(in Instance) (modes.Vector, Stats) {
	return b.SolveBounded(in, nil)
}

// SolveBounded implements Bounded. Branch nodes are charged to the
// checkpoint in cpBatch batches; an exhausted checkpoint stops the DFS at
// its incumbent, exactly like an exceeded NodeLimit.
func (b *BB) SolveBounded(in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	v, st, _ := b.solve(in, cp, &bbScratch{}, nil)
	return v, st
}

// bbScratch is BB's reusable machinery: the frontier (with its sort
// scratch), the greedy seed's scratch and the DFS state. A cold solve uses a
// fresh one; a Session owns one, so its warm solves allocate nothing in
// steady state.
type bbScratch struct {
	frontier frontier
	greedy   greedyScratch
	state    bbState
}

// solve is BB's one solve path: build the frontier, seed the incumbent with
// the greedy vector, and run the DFS on sc. The returned vector aliases sc.
//
// hint, when non-nil, is a shape-checked warm hint (the session's previous
// decision). If it is feasible on this finite instance, its re-scored
// throughput becomes an extra pruning floor and floored is true. The floor
// only tightens pruning — it never seeds the incumbent vector — so for any
// floor ≤ the instance optimum the returned vector is bit-identical to a
// cold solve in both tie modes:
//
//   - the final incumbent is the first-visited leaf maximizing
//     (throughput, −power) among feasible leaves, and every subtree holding
//     such a leaf has a relaxation bound strictly above the optimum (bound
//     adds positive relative slack), so no floor ≤ the optimum prunes it
//     under either the `< floor` (LexTies / no incumbent yet) or `≤ floor`
//     (incumbent held) test;
//   - visit order is fixed by the DFS and leaves score with the same
//     canonical sums, so the incumbent replacement chain ends identically.
func (b *BB) solve(in Instance, cp *Checkpoint, sc *bbScratch, hint modes.Vector) (_ modes.Vector, _ Stats, floored bool) {
	start := time.Now()
	st := Stats{Solver: b.Name(), Exact: true}
	if in.NumCores() == 0 {
		st.Elapsed = time.Since(start)
		return modes.Vector{}, st, false
	}
	f := &sc.frontier
	f.build(in)
	// Greedy incumbent seed. In LexTies mode the seed only tightens the
	// pruning floor — the incumbent vector must be discovered by the lex
	// DFS itself, or a greedy optimum could shadow a lex-smaller tie.
	gv, _, _ := greedySolve(in, cp, &sc.greedy)
	warmFloor := math.Inf(-1)
	if hint != nil && f.finite && in.VectorPower(hint) <= in.BudgetW {
		warmFloor = in.VectorInstr(hint)
		floored = true
	}
	st.UpperBoundInstr = f.bound(in, 0, 0, 0)
	gp := in.VectorPower(gv)
	gt := in.VectorInstr(gv)
	seedFeasible := gp <= in.BudgetW

	s := &sc.state
	v, best := s.v, s.best
	*s = bbState{in: in, f: f, limit: b.NodeLimit, lexTies: b.LexTies, cp: cp, v: v, best: best}
	s.bestT, s.bestP = -1, 0
	if seedFeasible {
		s.floor = gt
		if !b.LexTies {
			s.have = true
			s.best = append(s.best[:0], gv...)
			s.bestT, s.bestP = gt, gp
		}
	} else {
		s.floor = math.Inf(-1)
	}
	if warmFloor > s.floor {
		s.floor = warmFloor
	}
	n := in.NumCores()
	if cap(s.v) < n {
		s.v = make(modes.Vector, n)
	}
	s.v = s.v[:n]
	s.rec(0, 0, 0)

	st.Nodes, st.Pruned = s.nodes, s.pruned
	st.Exact = !s.aborted
	// Report only this solve's own checkpoint trips. Reading the shared
	// checkpoint's latched flag here would let a concurrent sibling (another
	// cluster goroutine under Hier, another exhaustive shard) that tripped the
	// budget mark THIS completed exact solve as aborted — inconsistent stats
	// (Exact && Aborted) and a lost memo entry.
	st.Aborted = s.cpHit
	st.Elapsed = time.Since(start)
	if !s.have {
		if seedFeasible {
			return gv, st, floored // only possible under an aggressive NodeLimit
		}
		return in.deepestVector(), st, floored
	}
	return s.best, st, floored
}

type bbState struct {
	in      Instance
	f       *frontier
	limit   int64
	lexTies bool
	cp      *Checkpoint

	v            modes.Vector
	best         modes.Vector
	bestT, bestP float64
	floor        float64 // pruning floor: max of seed, warm hint and incumbent
	have         bool
	nodes        int64
	pruned       int64
	aborted      bool
	// cpHit records that THIS solve's checkpoint charge tripped the budget —
	// as opposed to `aborted`, which also covers the solver's own NodeLimit
	// and a pre-latched checkpoint observed by a later Visit.
	cpHit  bool
	cpDebt int64
}

func (s *bbState) rec(c int, usedP, usedI float64) {
	if s.aborted {
		return
	}
	s.nodes++
	if s.limit > 0 && s.nodes > s.limit {
		s.aborted = true
		return
	}
	if s.cp != nil {
		s.cpDebt++
		if s.cpDebt >= cpBatch {
			debt := s.cpDebt
			s.cpDebt = 0
			if s.cp.Visit(debt) {
				s.aborted = true
				s.cpHit = true
				return
			}
		}
	}
	in := s.in
	if c == in.NumCores() {
		p := in.VectorPower(s.v)
		if p > in.BudgetW {
			return
		}
		t := in.VectorInstr(s.v)
		if !s.have || better(t, p, s.bestT, s.bestP) {
			s.have = true
			if len(s.best) != len(s.v) {
				s.best = make(modes.Vector, len(s.v))
			}
			copy(s.best, s.v)
			s.bestT, s.bestP = t, p
			if t > s.floor {
				s.floor = t
			}
		}
		return
	}
	ub := s.f.bound(in, c, usedP, usedI)
	if math.IsInf(ub, -1) {
		s.pruned++
		return
	}
	// LexTies keeps throughput ties alive (strict <); the default prunes
	// them (≤) once an incumbent vector exists.
	if s.lexTies || !s.have {
		if ub < s.floor {
			s.pruned++
			return
		}
	} else if ub <= s.floor {
		s.pruned++
		return
	}
	for mo := 0; mo < in.NumModes(); mo++ {
		s.v[c] = modes.Mode(mo)
		s.rec(c+1, usedP+in.Power[c][mo], usedI+in.Instr[c][mo])
	}
	s.v[c] = 0
}
