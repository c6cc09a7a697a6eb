package cmpsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/obs"
	"gpm/internal/workload"
)

// TestOptionsValidation is the table-driven typed-error check for the
// cmpsim front end: misconfiguration fails loudly as *engine.OptionError
// naming the offending field, before the substrate is touched.
func TestOptionsValidation(t *testing.T) {
	lib := testLib(t)
	good := func() Options {
		return Options{Budget: FixedBudget(70), Policy: core.MaxBIPS{}, Horizon: time.Millisecond}
	}
	cases := []struct {
		name  string
		mut   func(*Options)
		field string
	}{
		{"negative horizon", func(o *Options) { o.Horizon = -time.Millisecond }, "Horizon"},
		{"NaN guard", func(o *Options) { o.Guard = &core.GuardConfig{OvershootFrac: math.NaN()} }, "Guard"},
		{"supervisor with replay", func(o *Options) {
			o.Supervisor = &engine.SupervisorConfig{}
			o.Replay = &obs.Trace{Records: []obs.Record{{Vector: []int{0, 0, 0, 0}, BudgetW: 70}}}
		}, "Supervisor"},
		{"negative supervisor deadline", func(o *Options) {
			o.Supervisor = &engine.SupervisorConfig{Deadline: -time.Microsecond}
		}, "Supervisor.Deadline"},
	}
	// Every option error must return before the combo is profiled, so a
	// combo naming an unknown benchmark still fails on the option.
	unknown := workload.Combo{ID: "unknown", Benchmarks: []string{"ammp", "no-such-benchmark", "crafty", "art"}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, combo := range []workload.Combo{fourWay(), unknown} {
				opt := good()
				tc.mut(&opt)
				_, err := Run(lib, combo, opt)
				if err == nil {
					t.Fatalf("%s: accepted", combo.ID)
				}
				var oe *engine.OptionError
				if !errors.As(err, &oe) {
					t.Fatalf("%s: error %T (%v) is not *engine.OptionError", combo.ID, err, err)
				}
				if oe.Field != tc.field {
					t.Fatalf("%s: rejected field %q, want %q", combo.ID, oe.Field, tc.field)
				}
			}
		})
	}
}

// TestSupervisedRunCleanPathIdentical pins front-end transparency: a
// supervised cmpsim run whose every decision passes the conformance gate is
// bit-identical to the unsupervised run — same Result fingerprint — and
// records an all-rung-0 ladder.
func TestSupervisedRunCleanPathIdentical(t *testing.T) {
	lib := testLib(t)
	opt := Options{Budget: FixedBudget(70), Policy: core.MaxBIPS{}, Horizon: 4 * time.Millisecond}
	plain, err := Run(lib, fourWay(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Supervisor = &engine.SupervisorConfig{}
	sup, err := Run(lib, fourWay(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := obs.ResultFingerprint(plain), obs.ResultFingerprint(sup); a != b {
		t.Fatalf("supervised clean run diverged: %#x vs %#x", b, a)
	}
	if sup.Obs.SupervisorRungs[0] != sup.Obs.Decisions || sup.Obs.DegradedDecisions != 0 {
		t.Fatalf("clean run left rung 0: %+v", sup.Obs)
	}
}
