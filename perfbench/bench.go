package main

import (
	"fmt"
	"runtime"
	"time"

	"gpm/internal/engine"
)

// outcome is one operation's simulated result, compared across repetitions
// and summed into the simulated end-to-end metrics.
type outcome struct {
	fp                uint64
	simMs             float64
	lossPct           float64
	overshoot, deltas int
	// sloHit/sloN count fleet requests that met their SLO out of all
	// arrivals (zero on single-chip workloads).
	sloHit, sloN int
}

// workloadRunner is one benchmark workload: setup builds the state the timed
// phase needs from the generated inputs, and op runs one operation of the
// pass.
type workloadRunner interface {
	// setup builds everything the timed phase needs; it runs once per
	// set-up repetition and the last state wins.
	setup(b *bench) error
	// ops is the number of operations in one pass.
	ops() int
	// op runs operation i of the pass.
	op(b *bench, i int) (outcome, error)
	// describe summarizes the generated inputs in one line.
	describe() string
	// qualifiedTail reports whether the workload's decision stream is long
	// enough that decide_p99_us must have minBeyond samples beyond it.
	qualifiedTail() bool
}

// bench carries the measurement state shared by every workload.
type bench struct {
	tr *tracer // nil when the pass is untraced
	ls *layerStats
	// decideUs collects the current pass's decision-step latencies.
	decideUs []float64
	// deadlineHit of deadlineN manager decisions finished inside the
	// explore interval (single-chip workloads).
	deadlineHit, deadlineN int
	// workers bounds every worker pool the workloads configure.
	workers int
}

// layerStats accumulates the traced run's per-layer observations.
type layerStats struct {
	profileMs, buildWarmMs                []float64
	profiles                              int
	stepUs, stepAllocB, chainUs, restUs   []float64
	managerUs, coldUs, warmUs             []float64
	policyUs                              map[string][]float64
	decisions                             int
	sessDecisions                         int64
	memoHits, deltaCert, deltaFall, dirty int64
	nodes                                 int64
	fsWallNs, fsDecideNs, fsChainNs       int64
	fsInstr                               float64
	epochs, skipped, dirtyChips           int
	chipMemo                              int64
}

func newLayerStats() *layerStats { return &layerStats{policyUs: map[string][]float64{}} }

// countDeadline records whether one manager decision of us microseconds fit
// inside the explore interval.
func (b *bench) countDeadline(us float64) {
	b.deadlineN++
	if us <= exploreIntervalUs {
		b.deadlineHit++
	}
}

// allocEvery is the stride of traced non-decision steps whose allocation is
// measured (ReadMemStats stops the world, so it is sampled).
const allocEvery = 64

// recordPolicy folds one decision's engine and policy timing into the layer
// stats: decideNs is the engine's DecideNs, chainNs the middleware chain.
func (ls *layerStats) recordPolicy(key string, pt policyTimer, decideNs, chainNs int64) {
	ls.chainUs = append(ls.chainUs, float64(chainNs)/1e3)
	if pt == nil {
		return
	}
	ns, path := pt.last()
	ls.managerUs = append(ls.managerUs, float64(decideNs-ns)/1e3)
	us := float64(ns) / 1e3
	ls.policyUs[key] = append(ls.policyUs[key], us)
	switch path {
	case pathCold:
		ls.coldUs = append(ls.coldUs, us)
	case pathWarm:
		ls.warmUs = append(ls.warmUs, us)
	}
}

// recordSession folds a finished engine run's session counters.
func (ls *layerStats) recordSession(res *engine.Result, session bool) {
	ls.nodes += res.Obs.SolverNodes
	ls.memoHits += res.Obs.SolverMemoHits
	ls.deltaCert += res.Obs.DeltaCertified
	ls.deltaFall += res.Obs.DeltaFallbacks
	ls.dirty += res.Obs.DirtyCores
	if session {
		ls.sessDecisions += int64(res.Obs.Decisions)
	}
}

// driveLoop steps one engine loop to completion as a closed loop: each
// StepDelta starts after the previous one returns. Decision steps are timed
// into b.decideUs; in a traced pass every step gets a span and the layer
// stats are filled.
func (b *bench) driveLoop(newLoop func(engine.Observer) (*engine.Loop, error), pt policyTimer, key string, deltasPerExplore int) (*engine.Result, error) {
	var dl *decisionLog
	var obsv engine.Observer
	if b.tr != nil {
		dl = &decisionLog{}
		obsv = dl
	}
	id := b.tr.begin("engine.new")
	l, err := newLoop(obsv)
	b.tr.end(id)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	var m0, m1 runtime.MemStats
	for k := 0; ; k++ {
		decision := k%deltasPerExplore == 0
		before := l.Result().Obs.Decisions
		if b.tr == nil && !decision {
			done, err := l.StepDelta()
			if err != nil {
				return nil, err
			}
			if l.Result().Obs.Decisions != before {
				return nil, fmt.Errorf("step %d ran an unexpected decision", k)
			}
			if done {
				break
			}
			continue
		}
		allocSample := b.tr != nil && !decision && k%allocEvery == 1
		if allocSample {
			runtime.ReadMemStats(&m0)
		}
		name := "engine.step"
		if decision {
			name = "engine.decide_step"
		}
		sid := b.tr.begin(name)
		t0 := time.Now()
		done, err := l.StepDelta()
		dt := time.Since(t0)
		b.tr.end(sid)
		if err != nil {
			return nil, err
		}
		if allocSample {
			runtime.ReadMemStats(&m1)
		}
		if decided := l.Result().Obs.Decisions != before; decided != decision {
			return nil, fmt.Errorf("step %d: decision ran=%v, expected %v", k, decided, decision)
		}
		switch {
		case decision:
			us := float64(dt.Nanoseconds()) / 1e3
			b.decideUs = append(b.decideUs, us)
			b.countDeadline(us)
			if b.tr != nil {
				ls := b.ls
				ls.decisions++
				ls.restUs = append(ls.restUs, float64(dt.Nanoseconds()-dl.lastDecideNs-dl.lastChainNs)/1e3)
				ls.recordPolicy(key, pt, dl.lastDecideNs, dl.lastChainNs)
			}
		case allocSample:
			b.ls.stepAllocB = append(b.ls.stepAllocB, float64(m1.TotalAlloc-m0.TotalAlloc))
		default:
			b.ls.stepUs = append(b.ls.stepUs, float64(dt.Nanoseconds())/1e3)
		}
		if done {
			break
		}
	}
	fid := b.tr.begin("engine.finish")
	res := l.Finish()
	b.tr.end(fid)
	if b.tr != nil {
		_, session := pt.(sessionPolicy)
		b.ls.recordSession(res, session)
	}
	return res, nil
}
