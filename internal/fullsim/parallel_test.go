package fullsim

import (
	"testing"

	"gpm/internal/config"
	"gpm/internal/core"
	"gpm/internal/modes"
	"gpm/internal/obs"
	"gpm/internal/power"
)

func chipWithWorkers(t testing.TB, benchmarks []string, workers int) *Chip {
	t.Helper()
	cfg := config.Default(len(benchmarks))
	plan := modes.Default(cfg.Chip.NominalVdd, cfg.Chip.TransitionRateVPerUs)
	ch, err := NewWithOptions(cfg, power.Default(), plan, benchmarks, 0, nil,
		Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// managedFingerprint runs the golden managed case and reduces the full
// Result — every per-delta power/instruction series, mode decision and
// aggregate — to one fingerprint.
func managedFingerprint(t testing.TB, workers int) uint64 {
	t.Helper()
	ch := chipWithWorkers(t, []string{"ammp", "mcf", "crafty", "art"}, workers)
	ch.Warm(2000)
	res, err := ch.Managed(ManagedOptions{Policy: core.MaxBIPS{}, BudgetW: 50, Intervals: 6})
	if err != nil {
		t.Fatal(err)
	}
	return obs.ResultFingerprint(res)
}

// TestManagedDeterministicAcrossWorkers is the acceptance gate for the
// parallel substrate: Workers=1, 2 and 8 must produce bit-identical managed
// results, and repeated parallel runs must agree with each other (no
// scheduling-dependent arbitration).
func TestManagedDeterministicAcrossWorkers(t *testing.T) {
	want := managedFingerprint(t, 1)
	for _, workers := range []int{2, 8} {
		if got := managedFingerprint(t, workers); got != want {
			t.Errorf("Workers=%d fingerprint %#x, want %#x (Workers=1)", workers, got, want)
		}
	}
	if again := managedFingerprint(t, 8); again != want {
		t.Errorf("repeated Workers=8 run fingerprint %#x, want %#x", again, want)
	}
}

// TestAdvanceDeterministicAcrossWorkers checks the raw substrate below the
// manager: identical per-core committed counts, frontiers and shared-L2
// statistics for serial and parallel stepping.
func TestAdvanceDeterministicAcrossWorkers(t *testing.T) {
	type snap struct {
		committed []uint64
		frontier  []uint64
		accesses  uint64
		misses    uint64
		contended uint64
		wait      uint64
	}
	run := func(workers int) snap {
		ch := chipWithWorkers(t, []string{"art", "mcf", "gcc", "crafty"}, workers)
		ch.Warm(2000)
		ch.Measure(120_000)
		var s snap
		for _, c := range ch.cores {
			s.committed = append(s.committed, c.Counters().Committed)
			s.frontier = append(s.frontier, c.Frontier())
		}
		s.accesses, s.misses = ch.L2().Stats()
		s.contended, s.wait = ch.L2().Contention()
		return s
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range want.committed {
			if got.committed[i] != want.committed[i] || got.frontier[i] != want.frontier[i] {
				t.Errorf("Workers=%d core %d: committed/frontier %d/%d, want %d/%d",
					workers, i, got.committed[i], got.frontier[i], want.committed[i], want.frontier[i])
			}
		}
		if got.accesses != want.accesses || got.misses != want.misses {
			t.Errorf("Workers=%d L2 stats %d/%d, want %d/%d", workers, got.accesses, got.misses, want.accesses, want.misses)
		}
		if got.contended != want.contended || got.wait != want.wait {
			t.Errorf("Workers=%d contention %d/%d, want %d/%d", workers, got.contended, got.wait, want.contended, want.wait)
		}
	}
}

// TestParallelAdvanceRaceExercise drives the concurrent stepping path hard
// enough for the race detector (go test -race) to observe any unsynchronized
// shared-L2 or chip-state access, including mid-run mode switches.
func TestParallelAdvanceRaceExercise(t *testing.T) {
	ch := chipWithWorkers(t, []string{"art", "mcf", "ammp", "gcc"}, 4)
	ch.Warm(1000)
	levels := []modes.Mode{modes.Turbo, modes.Eff1, modes.Eff2}
	for i := 0; i < 8; i++ {
		ch.SetVector(modes.Uniform(4, levels[i%len(levels)]))
		ch.Measure(10_000)
	}
	if _, wait := ch.L2().Contention(); wait == 0 {
		t.Error("no shared-L2 contention after parallel windows")
	}
}

// TestMeasureSteadyStateAllocs pins the per-interval allocation behaviour of
// the serial path: once the window/commit/measure scratch buffers have grown
// to steady state, Measure must not allocate per interval.
func TestMeasureSteadyStateAllocs(t *testing.T) {
	ch := chipWithWorkers(t, []string{"crafty", "mcf"}, 1)
	ch.Warm(1000)
	ch.Measure(40_000) // grow scratch to steady state
	avg := testing.AllocsPerRun(5, func() {
		ch.Measure(8_000)
	})
	if avg > 2 {
		t.Errorf("Measure allocates %.1f objects per interval in steady state, want <=2", avg)
	}
}
