package core

import (
	"math"
	"testing"

	"gpm/internal/modes"
)

// TestMatricesIntoBitIdentical pins that the allocation-free MatricesInto
// path produces bit-identical matrices to the allocating Matrices, including
// across reuse with changing shapes and Done cores (reused rows must be
// re-zeroed, not inherited).
func TestMatricesIntoBitIdentical(t *testing.T) {
	pred := predictor()
	cur := modes.Vector{modes.Turbo, modes.Eff1, modes.Eff2, modes.Turbo}
	s := samples([]float64{20, 15, 9, 17}, []float64{1000, 850, 600, 910})
	s[2].Done = true

	var mx Matrices
	pred.MatricesInto(&mx, cur, s)
	want := pred.Matrices(cur, s)
	for c := range want.Power {
		for m := range want.Power[c] {
			if mx.Power[c][m] != want.Power[c][m] || mx.Instr[c][m] != want.Instr[c][m] {
				t.Fatalf("core %d mode %d: into (%v,%v) != alloc (%v,%v)",
					c, m, mx.Power[c][m], mx.Instr[c][m], want.Power[c][m], want.Instr[c][m])
			}
		}
	}

	// Reuse with a previously-Done core now live, and vice versa: no stale
	// zeros, no stale values.
	s[2].Done = false
	s[0].Done = true
	pred.MatricesInto(&mx, cur, s)
	want = pred.Matrices(cur, s)
	for c := range want.Power {
		for m := range want.Power[c] {
			if mx.Power[c][m] != want.Power[c][m] {
				t.Fatalf("reuse: core %d mode %d: %v != %v", c, m, mx.Power[c][m], want.Power[c][m])
			}
		}
	}
	if mx.Power[0][0] != 0 {
		t.Fatal("Done core's row not zeroed on reuse")
	}

	// Shape change reallocates cleanly.
	pred.MatricesInto(&mx, cur[:2], s[:2])
	if len(mx.Power) != 2 || len(mx.Instr) != 2 {
		t.Fatalf("shape change: got %d/%d rows", len(mx.Power), len(mx.Instr))
	}
}

// TestMatricesIntoNoAllocSteadyState pins the reuse path allocation-free.
func TestMatricesIntoNoAllocSteadyState(t *testing.T) {
	pred := predictor()
	cur := modes.Vector{modes.Turbo, modes.Eff1}
	s := samples([]float64{20, 15}, []float64{1000, 850})
	var mx Matrices
	pred.MatricesInto(&mx, cur, s)
	allocs := testing.AllocsPerRun(100, func() {
		pred.MatricesInto(&mx, cur, s)
	})
	if allocs != 0 {
		t.Fatalf("MatricesInto steady state allocates %.1f/op, want 0", allocs)
	}
}

// TestMatricesIntoRowSkipBitIdentity drives a reused Matrices through a
// sequence of partial input changes and checks every snapshot is bit-
// identical to a from-scratch fill — the row skip's correctness contract.
func TestMatricesIntoRowSkipBitIdentity(t *testing.T) {
	pred := predictor()
	n := 6
	cur := modes.Uniform(n, modes.Turbo)
	s := make([]Sample, n)
	for c := range s {
		s[c] = Sample{PowerW: 10 + float64(c), Instr: 1e6 + 1e5*float64(c)}
	}

	var mx Matrices
	for step := 0; step < 20; step++ {
		// Mutate a rotating subset: one sample, sometimes a mode, sometimes a
		// Done flip, leaving most cores untouched.
		c := step % n
		switch step % 4 {
		case 0:
			s[c].Instr *= 1.01
		case 1:
			cur[c] = modes.Mode((int(cur[c]) + 1) % pred.Plan.NumModes())
		case 2:
			s[c].Done = !s[c].Done
		case 3:
			// No change at all: the whole call must skip.
		}
		pred.MatricesInto(&mx, cur, s)
		want := pred.Matrices(cur, s)
		for c := range want.Power {
			for m := range want.Power[c] {
				if mx.Power[c][m] != want.Power[c][m] || mx.Instr[c][m] != want.Instr[c][m] {
					t.Fatalf("step %d: core %d mode %d diverged: (%v,%v) != (%v,%v)",
						step, c, m, mx.Power[c][m], mx.Instr[c][m], want.Power[c][m], want.Instr[c][m])
				}
			}
		}
	}
}

// TestMatricesIntoNaNRowRefilled pins the conservative NaN rule: a poisoned
// sample compares unequal to itself, so its row is refilled on every call
// and the skip can never freeze a NaN-derived row, while a clean core with
// unchanged inputs is skipped. A sentinel written into both rows between
// calls tells the two apart: a refill overwrites it, a skip keeps it.
func TestMatricesIntoNaNRowRefilled(t *testing.T) {
	pred := predictor()
	cur := modes.Vector{modes.Turbo, modes.Eff1}
	s := samples([]float64{20, 15}, []float64{1000, 850})
	s[0].PowerW = math.NaN()

	var mx Matrices
	pred.MatricesInto(&mx, cur, s)
	const sentinel = -7.0
	mx.Power[0][0], mx.Power[1][0] = sentinel, sentinel
	pred.MatricesInto(&mx, cur, s)
	if !math.IsNaN(mx.Power[0][0]) {
		t.Fatalf("NaN core's row was skipped: Power[0][0] = %v, want NaN", mx.Power[0][0])
	}
	if mx.Power[1][0] != sentinel {
		t.Fatalf("clean core's row was refilled: Power[1][0] = %v, want the sentinel", mx.Power[1][0])
	}
}

// TestGuardConfigValidate is the table-driven typed-error check for the
// guard's user-facing numeric knobs.
func TestGuardConfigValidate(t *testing.T) {
	ok := GuardConfig{}
	if err := ok.Validate(); err != nil {
		t.Fatalf("zero config (all defaults) rejected: %v", err)
	}
	full := DefaultGuard()
	if err := full.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name string
		mut  func(*GuardConfig)
	}{
		{"OvershootFrac NaN", func(g *GuardConfig) { g.OvershootFrac = nan }},
		{"OvershootFrac Inf", func(g *GuardConfig) { g.OvershootFrac = inf }},
		{"RecoverFrac NaN", func(g *GuardConfig) { g.RecoverFrac = nan }},
		{"EWMAAlpha NaN", func(g *GuardConfig) { g.EWMAAlpha = nan }},
		{"ClampFactor Inf", func(g *GuardConfig) { g.ClampFactor = inf }},
		{"MaxCorePowerW NaN", func(g *GuardConfig) { g.MaxCorePowerW = nan }},
		{"RescaleMismatchFrac Inf", func(g *GuardConfig) { g.RescaleMismatchFrac = inf }},
	}
	for _, tc := range cases {
		g := DefaultGuard()
		tc.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
