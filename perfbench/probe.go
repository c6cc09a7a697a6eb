package main

import (
	"math"
	"sort"
	"time"
)

// The host-speed probe. On a shared VM the same binary runs up to twice as
// fast in one minute as in the next (over ten runs, table2-mix's
// sim_ms_per_s ranged 17k–33k ms/s while each run's own passes stayed within
// about 10%). Raw host times therefore cannot meet any bound of at most 0.25.
// Before each set-up and each pass the benchmark times a fixed workload of
// its own, which shares no code with the program, and scales that stretch's
// host-time metrics to the speed at which the probe takes probeRefNs. A
// change to the program moves the scaled metrics; a change in the host's
// speed moves the probe as well and cancels.

// probeRefNs is the probe's time on the reference host (2-CPU Intel Xeon VM,
// go1.24.0): scaled metrics read as if measured at that speed.
const probeRefNs = 1.3e6

// probeReps is how many times a probe runs; the fastest counts, so a
// preemption during one repetition does not skew the scale.
const probeReps = 5

const probeLen = 1 << 14

var (
	probeBuf  = make([]float64, probeLen)
	probeSink float64
)

// probeOnce times one repetition: integer hashing, float arithmetic and a
// sort, a mix of the work the simulator does.
func probeOnce() time.Duration {
	t0 := time.Now()
	r := newRNG(1, 99)
	for i := range probeBuf {
		probeBuf[i] = r.float()
	}
	sort.Float64s(probeBuf)
	acc := 0.0
	for i, x := range probeBuf {
		acc += math.Sqrt(x*float64(i+1)) / (1 + x)
	}
	probeSink = acc
	return time.Since(t0)
}

// hostScale runs the probe and returns probeRefNs over its time: multiply a
// host time by it, or divide a host rate by it, to express the value at the
// reference speed.
func hostScale() float64 {
	best := probeOnce()
	for i := 1; i < probeReps; i++ {
		if d := probeOnce(); d < best {
			best = d
		}
	}
	return probeRefNs / float64(best.Nanoseconds())
}
