package engine

import (
	"testing"
	"time"

	"gpm/internal/thermal"
)

// TestStepDeltaZeroAllocs pins the allocation-free per-delta path: between
// decisions, StepDelta carves its rows off the interval's slab and appends
// to pre-sized series, with or without the thermal loop closed.
func TestStepDeltaZeroAllocs(t *testing.T) {
	for _, thermally := range []bool{false, true} {
		plan := testPlan(t)
		opt := baseOptions(t, plan, 4, 63)
		opt.DeltasPerExplore = 100
		opt.Horizon = 50 * time.Millisecond
		if thermally {
			st, err := thermal.NewState(thermal.Params{RthCPerW: 0.8, CthJPerC: 0.01, AmbientC: 45, LimitC: 100}, 4)
			if err != nil {
				t.Fatal(err)
			}
			opt.Thermal = thermal.NewGovernor(st, 5*time.Millisecond)
		}
		l, err := New(benchSub(t, 4), opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.StepDelta(); err != nil { // the first decision
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := l.StepDelta(); err != nil {
				t.Fatal(err)
			}
		})
		if d := l.Result().Obs.Decisions; d != 1 {
			t.Fatalf("thermal=%v: measured window ran %d decisions, want only the first", thermally, d)
		}
		if allocs != 0 {
			t.Errorf("thermal=%v: non-decision StepDelta allocates %v times, want 0", thermally, allocs)
		}
		l.Finish()
	}
}

// TestDeltaRowsPastPresizeCap runs past the 4096-row pre-size cap, so the
// series regrow mid-run while every interval refills the row slab, and
// checks every row against the aggregates accumulated alongside it: a row
// aliased with a neighbour or overwritten by a later delta breaks these
// bit-exact sums.
func TestDeltaRowsPastPresizeCap(t *testing.T) {
	plan := testPlan(t)
	const n = 4
	opt := baseOptions(t, plan, n, 0)
	opt.Horizon = 300 * time.Millisecond
	// A budget that moves every explore interval keeps the mode vector, and
	// so the rows, changing across the run.
	levels := []float64{50, 62, 74, 86, 56, 68}
	opt.Budget = func(now time.Duration) float64 {
		return levels[int(now/(500*time.Microsecond))%len(levels)]
	}
	res := runFake(t, benchSub(t, n), opt)
	if want := int(opt.Horizon / opt.DeltaSim); len(res.ChipPowerW) != want || len(res.CorePowerW) != want {
		t.Fatalf("%d chip / %d core rows, want %d", len(res.ChipPowerW), len(res.CorePowerW), want)
	}
	perCore := make([]float64, n)
	distinct := map[float64]bool{}
	for i, row := range res.CorePowerW {
		if len(row) != n || cap(row) != n || len(res.CoreInstr[i]) != n || cap(res.CoreInstr[i]) != n {
			t.Fatalf("row %d: len/cap %d/%d power, %d/%d instr, want %d", i,
				len(row), cap(row), len(res.CoreInstr[i]), cap(res.CoreInstr[i]), n)
		}
		var chip float64
		for c := range row {
			chip += row[c]
			perCore[c] += res.CoreInstr[i][c]
		}
		if chip != res.ChipPowerW[i] {
			t.Fatalf("row %d: core powers sum to %v, ChipPowerW %v", i, chip, res.ChipPowerW[i])
		}
		distinct[chip] = true
	}
	for c := range perCore {
		if perCore[c] != res.PerCoreInstr[c] {
			t.Errorf("core %d: CoreInstr rows sum to %v, PerCoreInstr %v", c, perCore[c], res.PerCoreInstr[c])
		}
	}
	if len(distinct) < 3 {
		t.Fatalf("only %d distinct chip powers — the rows do not vary enough to expose aliasing", len(distinct))
	}
}
