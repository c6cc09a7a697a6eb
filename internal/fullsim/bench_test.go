package fullsim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"gpm/internal/core"
)

// benchCombo is the 8-way mixed combo (8w-mixed) used by the paper's widest
// sweeps; the wall-clock acceptance numbers are quoted on this chip.
var benchCombo = []string{"ammp", "mcf", "crafty", "art", "facerec", "gcc", "mesa", "vortex"}

// advanceWindow is one delta-sim interval of global cycles (50 µs at 1 GHz),
// the granularity the managed control loop advances the chip at.
const advanceWindow = 50_000

// BenchmarkFullsimAdvance measures raw substrate stepping: one managed-loop
// delta interval of an 8-core chip per iteration, across worker counts.
// ns/core-cycle is wall time per simulated core-cycle (lower is better);
// Minstr/s is simulated instruction throughput.
func BenchmarkFullsimAdvance(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ch := chipWithWorkers(b, benchCombo, workers)
			ch.Warm(2000)
			start := committedTotal(ch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.Advance(advanceWindow)
			}
			b.StopTimer()
			coreCycles := float64(b.N) * advanceWindow * float64(ch.NumCores())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/coreCycles, "ns/core-cycle")
			instr := committedTotal(ch) - start
			b.ReportMetric(float64(instr)/1e6/b.Elapsed().Seconds(), "Minstr/s")
		})
	}
}

// BenchmarkFullsimManaged measures the acceptance case end to end: an 8-core
// chip under the MaxBIPS manager (engine control loop, explore probing, mode
// switching) for 2 explore intervals per iteration.
func BenchmarkFullsimManaged(b *testing.B) {
	const intervals = 2
	workersList := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workersList = append(workersList, n)
	}
	for _, workers := range workersList {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ch := chipWithWorkers(b, benchCombo, workers)
				ch.Warm(2000)
				b.StartTimer()
				if _, err := ch.Managed(ManagedOptions{Policy: core.MaxBIPS{}, BudgetW: 120, Intervals: intervals}); err != nil {
					b.Fatal(err)
				}
			}
			// Managed horizon: intervals × explore × (1 bootstrap + horizon)
			// — report per simulated core-cycle over the managed horizon.
			globalCycles := float64(intervals) * 500_000
			coreCycles := float64(b.N) * globalCycles * float64(len(benchCombo))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/coreCycles, "ns/core-cycle")
		})
	}
}

// BenchmarkFullsimSpeedup reports the parallel speedup of Advance directly:
// each iteration times the same simulated work with Workers=1 and
// Workers=GOMAXPROCS and reports the wall-clock ratio (1.0 = no speedup; on
// a single-CPU host this is ≈1 by construction — the determinism tests
// guarantee the results are identical either way).
func BenchmarkFullsimSpeedup(b *testing.B) {
	parallel := runtime.GOMAXPROCS(0)
	run := func(workers int) time.Duration {
		ch := chipWithWorkers(b, benchCombo, workers)
		ch.Warm(2000)
		start := time.Now()
		ch.Advance(4 * advanceWindow)
		return time.Since(start)
	}
	var serial, par time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial += run(1)
		par += run(parallel)
	}
	b.StopTimer()
	b.ReportMetric(serial.Seconds()/par.Seconds(), "x-speedup")
	b.ReportMetric(float64(parallel), "workers")
}

func committedTotal(ch *Chip) uint64 {
	var total uint64
	for _, c := range ch.cores {
		total += c.Counters().Committed
	}
	return total
}
