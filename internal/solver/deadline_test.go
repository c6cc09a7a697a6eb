package solver

import (
	"testing"
	"time"

	"gpm/internal/modes"
)

// boundedSolvers returns one instance of every registry solver (all Bounded).
func boundedSolvers(t testing.TB) []Solver {
	t.Helper()
	var out []Solver
	for _, name := range Names() {
		s, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// assertFeasibleOrFloor fails unless v fits the budget or is the all-deepest
// floor (the legal answer when nothing feasible was seen).
func assertFeasibleOrFloor(t *testing.T, name string, in Instance, v modes.Vector) {
	t.Helper()
	if in.VectorPower(v) <= in.BudgetW {
		return
	}
	if v.Equal(in.deepestVector()) {
		return
	}
	t.Fatalf("%s: infeasible non-floor vector %v (power %.3f > budget %.3f)",
		name, v, in.VectorPower(v), in.BudgetW)
}

// TestDeadlinePassthroughBitIdentical pins that a zero-budget Deadline
// wrapper is transparent: same vector, same Exact, same node count as the
// bare solver, and no Aborted flag.
func TestDeadlinePassthroughBitIdentical(t *testing.T) {
	for _, s := range boundedSolvers(t) {
		for _, n := range []int{4, 8} {
			in := randInstance(int64(n)*31, n, plan3(), 0.75)
			wantV, wantSt := s.Solve(in)
			d := WithDeadline(s, 0, 0)
			if d.Name() != s.Name() {
				t.Fatalf("wrapper name %q != inner %q", d.Name(), s.Name())
			}
			gotV, gotSt := d.Solve(in)
			if !gotV.Equal(wantV) {
				t.Fatalf("%s n=%d: wrapped %v != bare %v", s.Name(), n, gotV, wantV)
			}
			if gotSt.Exact != wantSt.Exact || gotSt.Nodes != wantSt.Nodes || gotSt.Aborted {
				t.Fatalf("%s n=%d: wrapped stats %+v != bare %+v", s.Name(), n, gotSt, wantSt)
			}
		}
	}
}

// TestNodeBudgetDeterministicAbort pins that a node budget cuts the solve at
// the same point every run: identical vectors and abort flags across reruns
// and across Workers ∈ {1, 2, 4}, and the incumbent is always feasible (or
// the deepest floor).
func TestNodeBudgetDeterministicAbort(t *testing.T) {
	for _, name := range Names() {
		for _, nodes := range []int64{1, 16, 1000, 50_000} {
			in := randInstance(nodes+7, 10, plan3(), 0.7)
			var v0 modes.Vector
			var aborted0 bool
			for _, workers := range []int{1, 2, 4} {
				s, err := New(name, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				d := WithDeadline(s, 0, nodes)
				v1, st1 := d.Solve(in)
				v1 = v1.Clone()
				v2, st2 := d.Solve(in)
				if !v1.Equal(v2) || st1.Aborted != st2.Aborted {
					t.Fatalf("%s nodes=%d workers=%d: nondeterministic abort: %v/%v vs %v/%v",
						name, nodes, workers, v1, st1.Aborted, v2, st2.Aborted)
				}
				if workers == 1 {
					v0, aborted0 = v1, st1.Aborted
				} else if !v1.Equal(v0) || st1.Aborted != aborted0 {
					t.Fatalf("%s nodes=%d: workers=%d gives %v/%v, workers=1 gives %v/%v",
						name, nodes, workers, v1, st1.Aborted, v0, aborted0)
				}
				assertFeasibleOrFloor(t, name, in, v1)
				if st1.Aborted && st1.Exact {
					t.Fatalf("%s nodes=%d: aborted solve claims exactness", name, nodes)
				}
			}
		}
	}
}

// TestWallDeadlineAborts drives the sharded exhaustive solver into a large
// instance with a 1 ns wall budget: the solve must abort (cooperatively, at
// a checkpoint) and still return a feasible incumbent.
func TestWallDeadlineAborts(t *testing.T) {
	in := randInstance(3, 12, plan3(), 0.7) // 3^12 ≈ 531k vectors unbounded
	d := WithDeadline(&Exhaustive{}, time.Nanosecond, 0)
	v, st := d.Solve(in)
	if !st.Aborted {
		t.Fatal("1 ns deadline did not abort a 531k-vector enumeration")
	}
	if st.Exact {
		t.Fatal("aborted solve claims exactness")
	}
	assertFeasibleOrFloor(t, "exhaustive", in, v)
}

// TestExternalAbort pins the supervisor's abandon path: a pre-aborted
// checkpoint makes every solver return immediately with a feasible vector.
func TestExternalAbort(t *testing.T) {
	for _, s := range boundedSolvers(t) {
		in := randInstance(99, 10, plan3(), 0.7)
		cp := NewCheckpoint(0, 0)
		cp.Abort()
		v, st := SolveBounded(s, in, cp)
		if !st.Aborted && s.Name() != "greedy" {
			t.Errorf("%s: pre-aborted checkpoint not reported in stats", s.Name())
		}
		assertFeasibleOrFloor(t, s.Name(), in, v)
		_ = st
	}
}

// TestCheckpointVisit pins the token's accounting: node budgets trip at the
// boundary, nil checkpoints never abort, Abort is sticky.
func TestCheckpointVisit(t *testing.T) {
	var nilCP *Checkpoint
	if nilCP.Visit(1000) || nilCP.Aborted() || nilCP.Nodes() != 0 {
		t.Fatal("nil checkpoint must be inert")
	}
	nilCP.Abort() // must not panic

	cp := NewCheckpoint(0, 100)
	if cp.Visit(100) {
		t.Fatal("visit at exactly the budget must not abort")
	}
	if !cp.Visit(1) {
		t.Fatal("visit past the budget must abort")
	}
	if !cp.Aborted() || cp.Nodes() != 101 {
		t.Fatalf("aborted=%v nodes=%d", cp.Aborted(), cp.Nodes())
	}
	if !cp.Visit(1) {
		t.Fatal("abort must be sticky")
	}
}
