package core

import (
	"math"
	"reflect"
	"testing"

	"gpm/internal/modes"
)

func testPlanH(t testing.TB) modes.Plan {
	t.Helper()
	return modes.Default(1.0, 10)
}

// sameMatrices reports bit-identity of two matrices.
func sameMatrices(a, b *Matrices) bool {
	if len(a.Power) != len(b.Power) {
		return false
	}
	for c := range a.Power {
		for m := range a.Power[c] {
			if a.Power[c][m] != b.Power[c][m] || a.Instr[c][m] != b.Instr[c][m] {
				return false
			}
		}
	}
	return true
}

func finiteMatrices(mx *Matrices) bool {
	for c := range mx.Power {
		for m := range mx.Power[c] {
			if !finite(mx.Power[c][m]) || !finite(mx.Instr[c][m]) {
				return false
			}
		}
	}
	return true
}

// TestHistoryColdStartBitIdentical pins the fallback contract: until a
// core's pattern register fills AND its indexed table entry has been
// trained, the history predictor's matrices are bit-identical to the base
// predictor's on the same sample stream.
func TestHistoryColdStartBitIdentical(t *testing.T) {
	plan := testPlanH(t)
	base := Predictor{Plan: plan, ExploreSeconds: 500e-6, DerateTransitions: true}
	hist := NewHistoryPredictor(base, HistoryConfig{})
	cur := modes.Uniform(2, modes.Turbo)

	// A non-repeating delta stream: patterns never recur, so every lookup is
	// cold and every interval must match the base predictor exactly.
	stream := [][]Sample{
		{{PowerW: 10, Instr: 1e6}, {PowerW: 8, Instr: 5e5}},
		{{PowerW: 11, Instr: 1.3e6}, {PowerW: 8, Instr: 3e5}},
		{{PowerW: 9, Instr: 0.9e6}, {PowerW: 8.5, Instr: 5.1e5}},
		{{PowerW: 12, Instr: 1.8e6}, {PowerW: 7, Instr: 2e5}},
		{{PowerW: 10, Instr: 0.8e6}, {PowerW: 9, Instr: 6e5}},
	}
	var got, want Matrices
	for i, samples := range stream {
		hist.MatricesInto(&got, cur, samples)
		base.MatricesInto(&want, cur, samples)
		if !sameMatrices(&got, &want) {
			t.Fatalf("interval %d: cold history predictor diverged from base", i)
		}
	}
	if hist.Stats().Hits != 0 {
		t.Fatalf("non-repeating stream produced %d hits", hist.Stats().Hits)
	}
}

// TestHistoryWarmHitAdjustsPrediction drives a strictly periodic phase
// pattern long enough to train the table, then checks a warm hit scales the
// BIPS prediction by the learned bucket ratio while power stays last-value.
func TestHistoryWarmHitAdjustsPrediction(t *testing.T) {
	plan := testPlanH(t)
	base := Predictor{Plan: plan, ExploreSeconds: 500e-6}
	cfg := HistoryConfig{Depth: 2, Buckets: 3, StepFrac: 0.08}
	hist := NewHistoryPredictor(base, cfg)
	cur := modes.Uniform(1, modes.Turbo)

	// Alternate instruction counts 1e6 / 1.16e6: deltas quantize to the +2
	// and −2 buckets, a period-2 pattern the depth-2 table learns exactly.
	instr := func(i int) float64 {
		if i%2 == 0 {
			return 1e6
		}
		return 1.16e6
	}
	var got, want Matrices
	sawHit := false
	for i := 0; i < 12; i++ {
		s := []Sample{{PowerW: 10, Instr: instr(i)}}
		before := hist.Stats().Hits
		hist.MatricesInto(&got, cur, s)
		base.MatricesInto(&want, cur, s)
		if hist.Stats().Hits == before {
			continue
		}
		sawHit = true
		// Power rows must still be last-value.
		for m := range got.Power[0] {
			if got.Power[0][m] != want.Power[0][m] {
				t.Fatalf("interval %d mode %d: warm hit moved the power prediction", i, m)
			}
		}
		// The learned ratio for the next delta after this interval's pattern.
		next := instr(i+1) / instr(i)
		bucket := math.Round((next - 1) / cfg.StepFrac)
		if bucket > 3 {
			bucket = 3
		} else if bucket < -3 {
			bucket = -3
		}
		ratio := 1 + cfg.StepFrac*bucket
		for m := range got.Instr[0] {
			if wantI := want.Instr[0][m] * ratio; math.Abs(got.Instr[0][m]-wantI) > 1e-6*math.Abs(wantI) {
				t.Fatalf("interval %d mode %d: instr %v, want %v (ratio %v)", i, m, got.Instr[0][m], wantI, ratio)
			}
		}
	}
	if !sawHit {
		t.Fatal("periodic stream never produced a warm table hit")
	}
}

// TestHistoryResetOnHostileSample checks a non-finite reading zeroes the
// sample, restarts the history, and leaves matrices finite.
func TestHistoryResetOnHostileSample(t *testing.T) {
	plan := testPlanH(t)
	base := Predictor{Plan: plan, ExploreSeconds: 500e-6}
	hist := NewHistoryPredictor(base, HistoryConfig{})
	cur := modes.Uniform(1, modes.Turbo)
	var mx Matrices
	hist.MatricesInto(&mx, cur, []Sample{{PowerW: 10, Instr: 1e6}})
	hist.MatricesInto(&mx, cur, []Sample{{PowerW: math.NaN(), Instr: math.Inf(1)}})
	if !finiteMatrices(&mx) {
		t.Fatal("non-finite telemetry leaked into the matrices")
	}
	for m := range mx.Power[0] {
		if mx.Power[0][m] != 0 || mx.Instr[0][m] != 0 {
			t.Fatalf("hostile sample should predict zero rows, got P=%v I=%v", mx.Power[0][m], mx.Instr[0][m])
		}
	}
	if hist.Stats().Resets == 0 {
		t.Fatal("hostile sample did not reset the history")
	}
}

// TestHistoryConfigValidate exercises the config guard rails.
func TestHistoryConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  HistoryConfig
		ok   bool
	}{
		{"zero-defaults", HistoryConfig{}, true},
		{"explicit-defaults", DefaultHistory(), true},
		{"nan-step", HistoryConfig{StepFrac: math.NaN()}, false},
		{"inf-step", HistoryConfig{StepFrac: math.Inf(1)}, false},
		{"negative-step", HistoryConfig{StepFrac: -0.1}, false},
		{"negative-depth", HistoryConfig{Depth: -1}, false},
		{"huge-depth", HistoryConfig{Depth: 9}, false},
		{"huge-buckets", HistoryConfig{Buckets: 16}, false},
		{"table-too-large", HistoryConfig{Depth: 8, Buckets: 15}, false},
		{"deep-narrow", HistoryConfig{Depth: 6, Buckets: 2}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() accepted, want error")
			}
		})
	}
}

// FuzzHistoryPredictor feeds hostile telemetry — NaN/Inf readings, stuck-at
// sensors, step discontinuities, dead cores — and asserts the two predictor
// invariants: matrices are always finite, and the first Depth observations
// of any core (the guaranteed-cold window) are bit-identical to last-value.
func FuzzHistoryPredictor(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{255, 0, 255, 0, 128, 128, 128})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		plan := modes.Default(1.0, 10)
		base := Predictor{Plan: plan, ExploreSeconds: 500e-6, DerateTransitions: true}
		cfg := DefaultHistory()
		hist := NewHistoryPredictor(base, cfg)
		const n = 3
		cur := modes.Uniform(n, modes.Turbo)

		// Decode one sample per (core, interval) from the fuzz bytes.
		sampleAt := func(i, c int) Sample {
			if len(data) == 0 {
				return Sample{PowerW: 10, Instr: 1e6}
			}
			b := data[(i*n+c)%len(data)]
			switch b % 8 {
			case 0:
				return Sample{PowerW: math.NaN(), Instr: 1e6}
			case 1:
				return Sample{PowerW: 10, Instr: math.Inf(1)}
			case 2:
				return Sample{} // dead/idle core: all zero
			case 3:
				return Sample{PowerW: 10, Instr: 1e6, Done: true}
			case 4:
				// Stuck-at: constant reading regardless of interval.
				return Sample{PowerW: 7.5, Instr: 8e5}
			case 5:
				// Step discontinuity driven by the byte's high bits.
				return Sample{PowerW: 5 + 40*float64(b>>4), Instr: 1e5 + 1e6*float64(b>>4)}
			case 6:
				return Sample{PowerW: -3, Instr: 1e6} // negative power, finite
			default:
				return Sample{PowerW: 8 + float64(b)/32, Instr: 9e5 + 1e4*float64(b)}
			}
		}

		intervals := len(data) + cfg.Depth + 2
		if intervals > 64 {
			intervals = 64
		}
		var got, want Matrices
		samples := make([]Sample, n)
		for i := 0; i < intervals; i++ {
			for c := 0; c < n; c++ {
				samples[c] = sampleAt(i, c)
			}
			hist.MatricesInto(&got, cur, samples)
			if !finiteMatrices(&got) {
				t.Fatalf("interval %d: non-finite matrix from samples %+v", i, samples)
			}
			// Cold-start bit-identity: before any core can have pushed Depth
			// deltas, no lookup has happened, so the only divergence from the
			// base predictor is the documented zeroing of non-finite samples.
			if i < cfg.Depth {
				clean := make([]Sample, n)
				for c := range samples {
					clean[c] = samples[c]
					if !finite(clean[c].PowerW) || !finite(clean[c].Instr) {
						clean[c] = Sample{Done: clean[c].Done}
					}
				}
				base.MatricesInto(&want, cur, clean)
				if !sameMatrices(&got, &want) {
					t.Fatalf("interval %d: cold-start output diverged from last-value", i)
				}
			}
		}
		st := hist.Stats()
		if st.Hits > st.Lookups || st.ColdFallbacks > st.Lookups {
			t.Fatalf("inconsistent stats: %+v", st)
		}
	})
}

// BenchmarkHistoryPredictor measures the steady-state prediction cost per
// decision with a warm table (8 cores); the bench-check gate pins the warm
// path at 0 allocs/op.
func BenchmarkHistoryPredictor(b *testing.B) {
	plan := modes.Default(1.0, 10)
	base := Predictor{Plan: plan, ExploreSeconds: 500e-6, DerateTransitions: true}
	hist := NewHistoryPredictor(base, HistoryConfig{})
	const n = 8
	cur := modes.Uniform(n, modes.Turbo)
	samples := make([]Sample, n)
	fill := func(i int) {
		for c := 0; c < n; c++ {
			phase := 1.0
			if (i+c)%2 == 0 {
				phase = 1.16
			}
			samples[c] = Sample{PowerW: 10 + float64(c), Instr: 1e6 * phase}
		}
	}
	var mx Matrices
	for i := 0; i < 16; i++ { // warm the tables and the scratch buffers
		fill(i)
		hist.MatricesInto(&mx, cur, samples)
	}
	b.Run("warm-history", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill(i)
			hist.MatricesInto(&mx, cur, samples)
		}
	})
	b.Run("base-last-value", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill(i)
			base.MatricesInto(&mx, cur, samples)
		}
	})
}

// TestHistoryStateRoundTrip pins the persistence API: export after training,
// validate, import into a fresh predictor, and check the tables (and only
// the tables) carried over.
func TestHistoryStateRoundTrip(t *testing.T) {
	plan := testPlanH(t)
	base := Predictor{Plan: plan, ExploreSeconds: 500e-6}
	cfg := HistoryConfig{Depth: 2, Buckets: 3, StepFrac: 0.08}
	a := NewHistoryPredictor(base, cfg)
	cur := modes.Uniform(2, modes.Turbo)

	// A repeating ×1.08 / ÷1.08 alternation trains table entries once the
	// pattern register warms.
	var mx Matrices
	instr := []float64{1e6, 5e5}
	for i := 0; i < 10; i++ {
		s := []Sample{{PowerW: 10, Instr: instr[0]}, {PowerW: 8, Instr: instr[1]}}
		a.MatricesInto(&mx, cur, s)
		if i%2 == 0 {
			instr[0] *= 1.08
			instr[1] *= 1.08
		} else {
			instr[0] /= 1.08
			instr[1] /= 1.08
		}
	}

	st := a.ExportState()
	if err := st.Validate(); err != nil {
		t.Fatalf("exported state invalid: %v", err)
	}
	if len(st.Tables) != 2 {
		t.Fatalf("exported %d tables, want 2", len(st.Tables))
	}
	trained := 0
	for _, table := range st.Tables {
		for _, e := range table {
			if e != historyCold {
				trained++
			}
		}
	}
	if trained == 0 {
		t.Fatal("training produced no table entries; the round trip is vacuous")
	}

	b := NewHistoryPredictor(base, cfg)
	if err := b.ImportState(st); err != nil {
		t.Fatalf("import: %v", err)
	}
	if got := b.ExportState(); !reflect.DeepEqual(got.Tables, st.Tables) {
		t.Fatal("tables did not survive the round trip")
	}
	for c := range b.cores {
		if b.cores[c].warmth != 0 || b.cores[c].prevOK {
			t.Fatalf("core %d volatile registers imported: %+v", c, b.cores[c])
		}
	}

	// A matching-width decision preserves the imported tables...
	s := []Sample{{PowerW: 10, Instr: 1e6}, {PowerW: 8, Instr: 5e5}}
	b.MatricesInto(&mx, cur, s)
	if got := b.ExportState(); !reflect.DeepEqual(got.Tables, st.Tables) {
		t.Fatal("matching-width decision wiped imported tables")
	}
	// ...and a mismatched width resets them (the documented discard).
	b.MatricesInto(&mx, modes.Uniform(3, modes.Turbo),
		[]Sample{{PowerW: 10, Instr: 1e6}, {PowerW: 8, Instr: 5e5}, {PowerW: 6, Instr: 3e5}})
	if got := b.ExportState(); len(got.Tables) != 3 {
		t.Fatalf("width change kept %d tables, want reset to 3", len(got.Tables))
	}
}

// TestHistoryStateValidation is the table-driven rejection check for
// ImportState and Validate.
func TestHistoryStateValidation(t *testing.T) {
	plan := testPlanH(t)
	base := Predictor{Plan: plan, ExploreSeconds: 500e-6}
	cfg := HistoryConfig{Depth: 2, Buckets: 3, StepFrac: 0.08}
	mk := func() *HistoryState {
		h := NewHistoryPredictor(base, cfg)
		var mx Matrices
		h.MatricesInto(&mx, modes.Uniform(2, modes.Turbo),
			[]Sample{{PowerW: 10, Instr: 1e6}, {PowerW: 8, Instr: 5e5}})
		return h.ExportState()
	}

	cases := []struct {
		name string
		mut  func(*HistoryState)
	}{
		{"bad version", func(st *HistoryState) { st.Version = 99 }},
		{"invalid config", func(st *HistoryState) { st.Config.StepFrac = -1 }},
		{"short table", func(st *HistoryState) { st.Tables[0] = st.Tables[0][:1] }},
		{"entry out of range", func(st *HistoryState) { st.Tables[1][0] = 100 }},
	}
	for _, tc := range cases {
		st := mk()
		tc.mut(st)
		if err := st.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
		h := NewHistoryPredictor(base, cfg)
		if err := h.ImportState(st); err == nil {
			t.Errorf("%s: ImportState accepted", tc.name)
		}
	}

	// Config mismatch: a valid state for a different geometry.
	st := mk()
	other := NewHistoryPredictor(base, HistoryConfig{Depth: 3, Buckets: 3, StepFrac: 0.08})
	if err := other.ImportState(st); err == nil {
		t.Error("config-mismatched import accepted")
	}

	// Importing over a live predictor is refused.
	live := NewHistoryPredictor(base, cfg)
	var mx Matrices
	live.MatricesInto(&mx, modes.Uniform(2, modes.Turbo),
		[]Sample{{PowerW: 10, Instr: 1e6}, {PowerW: 8, Instr: 5e5}})
	if err := live.ImportState(mk()); err == nil {
		t.Error("import over a live predictor accepted")
	}
}
