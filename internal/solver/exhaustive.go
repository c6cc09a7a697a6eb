package solver

import (
	"runtime"
	"sync"
	"time"

	"gpm/internal/modes"
)

// maxEnumerable bounds the vector count Exhaustive will attempt; beyond it
// the solver degrades to the greedy heuristic (Exact=false) instead of
// running for hours. 2^31 vectors is already minutes of work.
const maxEnumerable = int64(1) << 31

// shardMinVectors is the vector count below which Exhaustive enumerates on
// the calling goroutine: starting shard goroutines costs more than it saves
// there. On a 2-CPU Xeon VM, two shards break even with one goroutine at
// 3^7 = 2187 vectors (about 28 µs) and win at 3^8 = 6561 (53 vs 67 µs), so
// the paper's 4-core instances stay sequential and its 8-core ones shard.
const shardMinVectors = 4096

// Exhaustive is the brute-force reference solver and the MaxBIPS kernel
// (§5.2.3): it scores every modes^cores vector in lexicographic order and
// keeps the highest predicted throughput that fits the budget, preferring
// lower power on equal throughput and the earlier vector on full ties.
//
// The selection rule is core.MaxBIPS's: a vector fits unless its power
// exceeds the budget (so a NaN power or budget reads as fitting), and the
// incumbent starts as the all-deepest vector scored (−1, 0), so NaN or ≤ −1
// throughput is never chosen over it.
//
// Large instances are split into Workers contiguous ranges of the
// lexicographic order, one goroutine each; merging the range winners in
// order under the same rule reproduces the sequential result bit-for-bit.
type Exhaustive struct {
	// Workers bounds the shard goroutines (default GOMAXPROCS).
	Workers int
}

// Name implements Solver.
func (*Exhaustive) Name() string { return "exhaustive" }

// Solve implements Solver.
func (e *Exhaustive) Solve(in Instance) (modes.Vector, Stats) {
	return e.SolveBounded(in, nil)
}

// SolveBounded implements Bounded. A node budget of N scores exactly the
// first N vectors in lexicographic order — each shard's share is fixed up
// front — so a budget-cut solve returns the same vector for every Workers
// value. Wall deadlines and external aborts stop each shard at its next
// checkpoint batch and keep whatever the shards found before the cut.
func (e *Exhaustive) SolveBounded(in Instance, cp *Checkpoint) (modes.Vector, Stats) {
	start := time.Now()
	n, m := in.NumCores(), in.NumModes()

	// Refuse intractable instances: fall back to greedy rather than hang.
	total := int64(1)
	for c := 0; c < n; c++ {
		if total > maxEnumerable/int64(m) {
			v, st := Greedy{}.SolveBounded(in, cp)
			st.Solver, st.Elapsed = e.Name(), time.Since(start)
			return v, st
		}
		total *= int64(m)
	}
	scan := min(total, cp.nodesLeft())

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A NaN-power incumbent blocks every later equal-throughput vector
	// (x < NaN is false), which a range boundary would not see, so
	// non-finite instances stay on one goroutine.
	if scan < shardMinVectors || !finiteInstance(in) {
		workers = 1
	}

	var best rangeBest
	if workers == 1 {
		best = enumerateRange(in, 0, scan, cp)
	} else {
		best = enumerateShards(in, scan, workers, cp)
	}
	if scan < total {
		cp.Abort() // the node budget is spent, exactly as a Visit trip latches it
		best.aborted = true
	}
	return best.v, Stats{Solver: e.Name(), Nodes: best.nodes, Exact: !best.aborted,
		Aborted: best.aborted, Workers: workers, Elapsed: time.Since(start)}
}

// enumerateShards splits the first scan vectors into workers contiguous
// ranges, one goroutine each, and merges the range winners in order. It is
// separate from SolveBounded so that only sharded solves move the instance
// to the heap.
func enumerateShards(in Instance, scan int64, workers int, cp *Checkpoint) rangeBest {
	results := make([]rangeBest, workers)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = enumerateRange(in, scan*int64(w)/int64(workers), scan*int64(w+1)/int64(workers), cp)
		}()
	}
	wg.Wait()
	best := results[0]
	for _, r := range results[1:] {
		best.nodes += r.nodes
		best.aborted = best.aborted || r.aborted
		if better(r.t, r.p, best.t, best.p) {
			best.t, best.p, best.v = r.t, r.p, r.v
		}
	}
	return best
}

// rangeBest is one lexicographic range's winner.
type rangeBest struct {
	v       modes.Vector
	t, p    float64
	nodes   int64
	aborted bool
}

// enumerateRange scores the vectors with lexicographic indices [lo, hi),
// core 0 being the most significant digit, starting from the all-deepest
// incumbent scored (−1, 0). Power and throughput are kept as running prefix
// sums in core order, so each vector costs only the cores the odometer
// changed and every sum is bit-identical to VectorPower/VectorInstr. Nodes
// are charged to the checkpoint in cpBatch batches; a tripped checkpoint
// stops the range at its current best.
func enumerateRange(in Instance, lo, hi int64, cp *Checkpoint) (r rangeBest) {
	n, m := in.NumCores(), in.NumModes()
	buf := make(modes.Vector, 2*n)
	v := buf[:n:n]
	r.v = buf[n:]
	for c := range r.v {
		r.v[c] = modes.Mode(m - 1)
	}
	r.t = -1
	rem := lo
	for c := n - 1; c >= 0; c-- {
		v[c] = modes.Mode(rem % int64(m))
		rem /= int64(m)
	}
	var small [2 * 17]float64 // prefix sums for up to 16 cores stay on the stack
	sums := small[:]
	if 2*(n+1) > len(small) {
		sums = make([]float64, 2*(n+1))
	}
	ps, ts := sums[:n+1], sums[n+1:2*(n+1)]
	from := 0 // first core whose prefix sums are stale
	var cpDebt int64
	for i := lo; i < hi; i++ {
		r.nodes++
		if cp != nil {
			if cpDebt++; cpDebt >= cpBatch {
				if cp.Visit(cpDebt) {
					r.aborted = true
					return r
				}
				cpDebt = 0
			}
		}
		for c := from; c < n; c++ {
			ps[c+1] = ps[c] + in.Power[c][v[c]]
			ts[c+1] = ts[c] + in.Instr[c][v[c]]
		}
		if p := ps[n]; !(p > in.BudgetW) && better(ts[n], p, r.t, r.p) {
			r.t, r.p = ts[n], p
			copy(r.v, v)
		}
		if i+1 == hi {
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
	return r
}
