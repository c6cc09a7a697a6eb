// Command perfbench is the repository benchmark. It drives the simulator's
// public entry points — cmpsim.NewLoop with engine.Loop.StepDelta,
// fullsim.Chip.Managed, fleet.Run and trace.Library.Profile — as a closed
// loop on one of four seeded workloads, checks that the outputs are correct,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload table2-mix --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart approximates the process start time: package variables are
// initialized before main runs.
var processStart = time.Now()

// setupRepeats is the number of full set-ups per run; setup_s is their
// median.
const setupRepeats = 3

// spanDir holds the traced runs' span files, relative to the working
// directory (run.sh runs from the repository root).
const spanDir = ".bench_build/spans"

// maxSpansWritten caps the span file of a traced run.
const maxSpansWritten = 200_000

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table2-mix, cyclelevel-8w or fleet-brownout")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	workers := runtime.NumCPU()
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "# host %s\n", hostMeta())
	fmt.Fprintf(stdout, "# inputs %s\n", w.describe())

	b := &bench{ls: newLayerStats(), workers: workers}
	if *traced == 1 {
		b.tr = newTracer()
	}
	setupS, setupRaw, err := setupAll(w, b)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: setup:", err)
		return 1
	}

	var rep report
	var lines []string
	if *traced == 0 {
		rep, lines = timedRun(w, b, *seconds, setupS)
		lines = append([]string{fmt.Sprintf("# setup raw median %.4g s", setupRaw)}, lines...)
	} else {
		rep, lines = tracedRun(w, b, *name, *seed)
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// setupAll runs the workload's set-up setupRepeats times and returns the
// median duration, scaled to the reference host speed, and the median raw
// duration. The first set-up is timed from process start.
func setupAll(w workloadRunner, b *bench) (scaled, raw float64, err error) {
	tr := b.tr
	var ds, raws []float64
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		scale := hostScale()
		id := tr.begin("setup")
		err := w.setup(b)
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		d := time.Since(start).Seconds()
		raws = append(raws, d)
		ds = append(ds, d*scale)
		// Drop the previous set-up's garbage before the next one, so the
		// peak resident set does not depend on when the collector ran.
		runtime.GC()
	}
	return median(ds), median(raws), nil
}

// passState runs operations and checks each against its first result.
type passState struct {
	first     []outcome
	have      []bool
	attempted int
	failures  []string
}

func newPassState(n int) *passState {
	return &passState{first: make([]outcome, n), have: make([]bool, n)}
}

// runOp runs operation i, checks it, and reports whether it succeeded.
func (p *passState) runOp(w workloadRunner, b *bench, i int) (outcome, bool) {
	p.attempted++
	id := b.tr.begin("op")
	o, err := w.op(b, i)
	b.tr.end(id)
	if err == nil && p.have[i] && o.fp != p.first[i].fp {
		err = fmt.Errorf("fingerprint %016x differs from the first run's %016x", o.fp, p.first[i].fp)
	}
	if err != nil {
		p.failures = append(p.failures, fmt.Sprintf("op %d: %v", i, err))
		return o, false
	}
	if !p.have[i] {
		p.first[i], p.have[i] = o, true
	}
	return o, true
}

// passStats are one complete pass's host-time measurements, scaled to the
// reference host speed by the probe run just before the pass.
type passStats struct {
	p50, p99, simPerS float64
	scale             float64
	samples           int
}

// timedRun is the untraced run: whole passes over the operation schedule
// until seconds have elapsed, then the end-to-end metrics. Host-time metrics
// are per-pass values, reported as their interquartile mean over the
// complete passes; simulated metrics come from the first pass, which every
// run completes.
func timedRun(w workloadRunner, b *bench, seconds, setupS float64) (report, []string) {
	n := w.ops()
	ps := newPassState(n)
	var passes []passStats
	var allocB uint64
	var m0, m1 runtime.MemStats
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	runtime.ReadMemStats(&m0)
	for pass := 0; ; pass++ {
		b.decideUs = b.decideUs[:0]
		scale := hostScale()
		var simMs, hostS float64
		stopped := false
		for i := 0; i < n; i++ {
			t0 := time.Now()
			o, ok := ps.runOp(w, b, i)
			hostS += time.Since(t0).Seconds()
			if ok {
				simMs += o.simMs
			}
			// A pass cut short by the deadline is dropped from the
			// per-pass statistics.
			if pass > 0 && i < n-1 && time.Now().After(deadline) {
				stopped = true
				break
			}
		}
		if pass == 0 {
			runtime.ReadMemStats(&m1)
			allocB = m1.TotalAlloc - m0.TotalAlloc
		}
		if stopped {
			break
		}
		st := passStats{
			simPerS: simMs / hostS / scale,
			p50:     quantile(b.decideUs, 0.50) * scale,
			p99:     quantile(b.decideUs, 0.99) * scale,
			scale:   scale,
			samples: len(b.decideUs),
		}
		passes = append(passes, st)
		if w.qualifiedTail() {
			if err := checkTail(fmt.Sprintf("pass %d decide_p99_us", pass), st.samples, 0.99); err != nil {
				ps.failures = append(ps.failures, err.Error())
			}
		}
		if pass > 0 && time.Now().After(deadline) {
			break
		}
	}

	var lossSum, lossN float64
	var over, deltas, sloHit, sloN int
	for i := 0; i < n; i++ {
		if !ps.have[i] {
			continue
		}
		o := ps.first[i]
		lossSum += o.lossPct
		lossN++
		over += o.overshoot
		deltas += o.deltas
		sloHit += o.sloHit
		sloN += o.sloN
	}
	slo := share(float64(sloHit), float64(sloN))
	if sloN == 0 {
		slo = share(float64(b.deadlineHit), float64(b.deadlineN))
	}
	pick := func(f func(passStats) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return interquartileMean(xs)
	}
	m := map[string]metric{
		"setup_s":             {setupS, "s"},
		"sim_ms_per_s":        {pick(func(p passStats) float64 { return p.simPerS }), "ms/s"},
		"decide_p50_us":       {pick(func(p passStats) float64 { return p.p50 }), "us"},
		"decide_p99_us":       {pick(func(p passStats) float64 { return p.p99 }), "us"},
		"alloc_mb":            {float64(allocB) / 1e6, "MB"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
		"throughput_loss_pct": {lossSum / lossN, "%"},
		"overshoot_pct":       {share(float64(over), float64(deltas)), "%"},
		"slo_attain_pct":      {slo, "%"},
	}
	lines := []string{fmt.Sprintf("# operations attempted=%d failed=%d; %d complete passes of %d ops", ps.attempted, len(ps.failures), len(passes), n)}
	for i, p := range passes {
		lines = append(lines, fmt.Sprintf("# pass %d: host scale %.4f; decide samples=%d beyond_p99=%d p50=%.4gus p99=%.4gus sim=%.6g ms/s (scaled)",
			i, p.scale, p.samples, beyond(p.samples, 0.99), p.p50, p.p99, p.simPerS))
	}
	return finish(ps, m, endToEnd, lines)
}

// exploreIntervalUs is the paper's 500 µs explore interval: the decision
// deadline behind slo_attain_pct on the single-chip workloads.
const exploreIntervalUs = 500

// finish validates every metric value and assembles the report.
func finish(ps *passState, m map[string]metric, defs []metricDef, lines []string) (report, []string) {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			ps.failures = append(ps.failures, "missing metric "+d.Name)
			continue
		}
		if !finite(v.Value) {
			ps.failures = append(ps.failures, fmt.Sprintf("metric %s is not finite", d.Name))
			m[d.Name] = metric{0, d.Unit}
		}
	}
	for _, d := range defs {
		lines = append(lines, fmt.Sprintf("%-32s %14.6g %s", d.Name, m[d.Name].Value, m[d.Name].Unit))
	}
	for _, f := range ps.failures {
		lines = append(lines, "# FAIL "+f)
	}
	failed := len(ps.failures)
	attempted := ps.attempted
	if attempted < failed {
		attempted = failed
	}
	if attempted == 0 {
		attempted = 1
	}
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, lines
}

// tracedRun runs one untraced and one traced pass over the same schedule,
// checks that their fingerprints agree, and reports the per-layer metrics.
func tracedRun(w workloadRunner, b *bench, name string, seed int64) (report, []string) {
	n := w.ops()
	ps := newPassState(n)
	tr := b.tr

	b.tr = nil
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ps.runOp(w, b, i)
	}
	untracedS := time.Since(t0).Seconds()

	b.tr = tr
	fromNs := time.Since(tr.t0).Nanoseconds()
	t1 := time.Now()
	for i := 0; i < n; i++ {
		ps.runOp(w, b, i)
	}
	tracedS := time.Since(t1).Seconds()

	m := layerMetrics(b.ls, tr, fromNs, tracedS, untracedS)
	lines := []string{fmt.Sprintf("# operations attempted=%d failed=%d (one untraced and one traced pass of %d ops)", ps.attempted, len(ps.failures), n)}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.write(path, maxSpansWritten); err != nil {
		lines = append(lines, "# span file not written: "+err.Error())
	} else {
		lines = append(lines, fmt.Sprintf("# spans %d written to %s", len(tr.spans), path))
	}
	return finish(ps, m, perLayer, lines)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, or NaN
// (which fails the run) when it cannot.
func peakRSSMB() float64 {
	kb, err := procStatusKB("VmHWM")
	if err != nil {
		return math.NaN()
	}
	return float64(kb) * 1024 / 1e6
}
