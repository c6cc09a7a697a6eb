package solver

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpm/internal/modes"
)

func plan3() modes.Plan { return modes.Default(1.300, 0.010) }

// randInstance builds a deterministic pseudo-random instance: per-core Turbo
// (power, instr) draws scaled through the plan's laws with multiplicative
// noise, so matrices are realistic but not perfectly monotone — solvers must
// not assume monotonicity.
func randInstance(seed int64, n int, plan modes.Plan, budgetFrac float64) Instance {
	rng := rand.New(rand.NewSource(seed))
	m := plan.NumModes()
	in := Instance{Plan: plan, Power: make([][]float64, n), Instr: make([][]float64, n)}
	for c := 0; c < n; c++ {
		p0 := 10 + 20*rng.Float64()
		i0 := 1e4 + 2e5*rng.Float64()
		in.Power[c] = make([]float64, m)
		in.Instr[c] = make([]float64, m)
		for mo := 0; mo < m; mo++ {
			in.Power[c][mo] = p0 * plan.PowerScale(modes.Mode(mo)) * (0.97 + 0.06*rng.Float64())
			in.Instr[c][mo] = i0 * plan.FreqScale(modes.Mode(mo)) * (0.97 + 0.06*rng.Float64())
		}
	}
	var turbo float64
	for c := 0; c < n; c++ {
		turbo += in.Power[c][0]
	}
	in.BudgetW = budgetFrac * turbo
	return in
}

// replicatedInstance repeats one core's matrices n times — the worst case
// for tie-breaking, since every permutation of an assignment scores equally.
func replicatedInstance(n int, plan modes.Plan, budgetFrac float64) Instance {
	base := randInstance(42, 1, plan, 1)
	in := Instance{Plan: plan, Power: make([][]float64, n), Instr: make([][]float64, n)}
	var turbo float64
	for c := 0; c < n; c++ {
		in.Power[c] = base.Power[0]
		in.Instr[c] = base.Instr[0]
		turbo += base.Power[0][0]
	}
	in.BudgetW = budgetFrac * turbo
	return in
}

// referenceSolve is an independent sequential re-implementation of the
// exhaustive kernel (lexicographic odometer + strict improvement, the
// MaxBIPS rule: a vector fits unless its power exceeds the budget), kept
// deliberately simple to cross-check the sharded solver.
func referenceSolve(in Instance) modes.Vector {
	n, m := in.NumCores(), in.NumModes()
	best := in.deepestVector()
	bestT, bestP := -1.0, 0.0
	v := make(modes.Vector, n)
	for {
		p := in.VectorPower(v)
		if !(p > in.BudgetW) {
			t := in.VectorInstr(v)
			if t > bestT || (t == bestT && p < bestP) {
				bestT, bestP = t, p
				copy(best, v)
			}
		}
		c := n - 1
		for c >= 0 {
			v[c]++
			if int(v[c]) < m {
				break
			}
			v[c] = 0
			c--
		}
		if c < 0 {
			return best
		}
	}
}

func TestExhaustiveShardingMatchesSequentialReference(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		for _, frac := range []float64{0.55, 0.8, 1.0} {
			in := randInstance(int64(n)*100+int64(frac*100), n, plan3(), frac)
			want := referenceSolve(in)
			for _, workers := range []int{1, 3, 8} {
				ex := &Exhaustive{Workers: workers}
				got, st := ex.Solve(in)
				if !got.Equal(want) {
					t.Fatalf("n=%d frac=%.2f workers=%d: sharded %v != reference %v", n, frac, workers, got, want)
				}
				if !st.Exact {
					t.Fatalf("exhaustive not exact")
				}
				wantNodes := int64(math.Pow(float64(in.NumModes()), float64(n)))
				if st.Nodes != wantNodes {
					t.Fatalf("n=%d workers=%d: visited %d vectors, want %d", n, workers, st.Nodes, wantNodes)
				}
			}
		}
	}
}

func TestExhaustiveIntractableFallsBackToGreedy(t *testing.T) {
	in := randInstance(7, 64, plan3(), 0.8)
	ex := &Exhaustive{}
	v, st := ex.Solve(in)
	if st.Exact {
		t.Fatal("64-core exhaustive should not claim exactness")
	}
	gv, _, _ := greedySolve(in, nil, nil)
	if !v.Equal(gv) {
		t.Fatal("intractable fallback should be the greedy vector")
	}
}

func TestBBLexTiesBitIdenticalToExhaustive(t *testing.T) {
	plans := []modes.Plan{plan3(), modes.Linear(5, 0.70, 1.300, 0.010)}
	for pi, plan := range plans {
		for seed := int64(0); seed < 12; seed++ {
			for _, frac := range []float64{0.5, 0.65, 0.8, 0.95} {
				in := randInstance(seed*7+int64(pi), 7, plan, frac)
				want := referenceSolve(in)
				bb := &BB{LexTies: true}
				got, st := bb.Solve(in)
				if !got.Equal(want) {
					t.Fatalf("plan=%d seed=%d frac=%.2f: bb %v != exhaustive %v", pi, seed, frac, got, want)
				}
				if !st.Exact {
					t.Fatal("bb not exact")
				}
			}
		}
	}
}

func TestBBSymmetricTiesStayLexicographic(t *testing.T) {
	// Replicated cores make every permutation tie; LexTies must still pick
	// exactly the exhaustive kernel's representative.
	for _, frac := range []float64{0.6, 0.75, 0.9} {
		in := replicatedInstance(6, plan3(), frac)
		want := referenceSolve(in)
		got, _ := (&BB{LexTies: true}).Solve(in)
		if !got.Equal(want) {
			t.Fatalf("frac=%.2f: bb %v != exhaustive %v on symmetric instance", frac, got, want)
		}
		// Default mode must still match the optimal value.
		def, _ := (&BB{}).Solve(in)
		if it, wt := in.VectorInstr(def), in.VectorInstr(want); math.Abs(it-wt) > 1e-9*wt {
			t.Fatalf("frac=%.2f: default bb instr %g != optimum %g", frac, it, wt)
		}
	}
}

// TestFrontierFastSortMatchesReference pins BB's two frontier sort
// families to one order. On finite instances build takes the
// allocation-free sorts (insertion sort for mode points, SortFunc with the
// seq tiebreak for segments); they must reproduce the reference
// sort.Slice/SliceStable frontier exactly — on random instances, on coarse
// ones whose rounded entries make duplicate points and equal segment
// ratios common, and on replicated cores, where every core emits the same
// segments. The frontier does not read the budget, so an infinite budget
// builds the reference frontier of the same matrices.
func TestFrontierFastSortMatchesReference(t *testing.T) {
	var ins []Instance
	for seed := int64(0); seed < 200; seed++ {
		plan := plan3()
		if seed%2 == 1 {
			plan = modes.Linear(5, 0.6, 1.300, 0.010)
		}
		in := randInstance(seed+900, 1+int(seed%24), plan, 0.4+0.5*float64(seed%7)/6)
		if seed%3 == 0 {
			for c := range in.Power {
				for mo := range in.Power[c] {
					in.Power[c][mo] = math.Round(in.Power[c][mo] / 4)
					in.Instr[c][mo] = math.Round(in.Instr[c][mo] / 5e4)
				}
			}
		}
		ins = append(ins, in)
	}
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		ins = append(ins, replicatedInstance(12, plan3(), frac))
	}
	for i, in := range ins {
		var fast, ref frontier
		fast.build(in)
		unbounded := in
		unbounded.BudgetW = math.Inf(1)
		ref.build(unbounded)
		if !fast.finite || ref.finite {
			t.Fatalf("instance %d: sort selection finite=%v/%v, want true/false", i, fast.finite, ref.finite)
		}
		if !slices.Equal(fast.segs, ref.segs) {
			t.Fatalf("instance %d: fast segment order %v != reference %v", i, fast.segs, ref.segs)
		}
		if !slices.Equal(fast.baseP, ref.baseP) || !slices.Equal(fast.baseI, ref.baseI) ||
			!slices.Equal(fast.sufP, ref.sufP) || !slices.Equal(fast.sufI, ref.sufI) {
			t.Fatalf("instance %d: fast and reference frontiers differ in their base points", i)
		}
	}
}

func TestBBNodeLimitReturnsFeasibleIncumbent(t *testing.T) {
	in := randInstance(3, 24, plan3(), 0.8)
	bb := &BB{NodeLimit: 10}
	v, st := bb.Solve(in)
	if st.Exact {
		t.Fatal("node-limited bb must not claim exactness")
	}
	if p := in.VectorPower(v); p > in.BudgetW {
		t.Fatalf("node-limited bb returned infeasible vector: %g > %g", p, in.BudgetW)
	}
	gv, _, _ := greedySolve(in, nil, nil)
	if in.VectorInstr(v) < in.VectorInstr(gv) {
		t.Fatal("node-limited bb fell below its greedy seed")
	}
}

func TestHierFeasibleDeterministicAndNearOptimal(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		in := randInstance(seed+50, 12, plan3(), 0.8)
		opt := referenceSolve(in) // 3^12 ≈ 531k, fine
		optT := in.VectorInstr(opt)
		h := &Hier{ClusterSize: 4}
		v1, _ := h.Solve(in)
		v2, _ := h.Solve(in)
		if !v1.Equal(v2) {
			t.Fatalf("seed %d: stateless hier not deterministic", seed)
		}
		if p := in.VectorPower(v1); p > in.BudgetW+in.budgetEps() {
			t.Fatalf("seed %d: hier infeasible: %g > %g", seed, p, in.BudgetW)
		}
		if got := in.VectorInstr(v1); got < 0.95*optT {
			t.Fatalf("seed %d: hier quality %.4f below 95%%", seed, got/optT)
		}
	}
}

func TestHierStatefulRebalancing(t *testing.T) {
	// Alpha share smoothing lives in the session (a bare Hier is stateless).
	h := &Hier{ClusterSize: 4, Alpha: 0.5}
	ses := NewSession(h)
	defer ses.Close()
	in := randInstance(9, 16, plan3(), 0.8)
	var hint Hint
	for i := 0; i < 3; i++ {
		v, _ := ses.Solve(in, hint)
		if p := in.VectorPower(v); p > in.BudgetW+in.budgetEps() {
			t.Fatalf("call %d: stateful hier infeasible", i)
		}
		hint = Hint{Vector: v.Clone(), Instr: in.VectorInstr(v)}
	}
	// Steady state: repeated identical instances converge to a fixed point.
	v1, _ := ses.Solve(in, hint)
	v1 = v1.Clone()
	v2, _ := ses.Solve(in, hint)
	if !v1.Equal(v2) {
		t.Fatal("stateful hier did not converge on a constant instance")
	}
	// And a bare Hier with Alpha set stays deterministic call to call.
	b1, _ := h.Solve(in)
	b2, _ := h.Solve(in)
	if !b1.Equal(b2) {
		t.Fatal("bare hier with Alpha not stateless")
	}
}

func TestInfeasibleBudgetReturnsAllDeepest(t *testing.T) {
	in := randInstance(1, 5, plan3(), 0.8)
	in.BudgetW = 0.1 // below even the all-deepest floor
	want := in.deepestVector()
	for _, name := range Names() {
		s, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := s.Solve(in)
		if !v.Equal(want) {
			t.Fatalf("%s: infeasible instance returned %v, want all-deepest", name, v)
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, Options{ClusterSize: 4, Workers: 2, NodeLimit: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := New("nope", Options{}); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

// TestBB64CoresUnder10ms is the acceptance gate for the exact solver at
// scale: a 64-core, 3-mode instance must be decided in well under 10 ms.
// testing.Benchmark gives a measured ns/op rather than a one-shot timing.
func TestBB64CoresUnder10ms(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion skipped in -short")
	}
	in := randInstance(64, 64, plan3(), 0.8)
	bb := &BB{}
	v, st := bb.Solve(in)
	if !st.Exact {
		t.Fatal("bb inexact at 64 cores")
	}
	if p := in.VectorPower(v); p > in.BudgetW {
		t.Fatal("bb infeasible at 64 cores")
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bb.Solve(in)
		}
	})
	if perOp := res.NsPerOp(); perOp > 10_000_000 {
		t.Fatalf("64-core bb decision took %d ns/op, want < 10ms", perOp)
	}
}
