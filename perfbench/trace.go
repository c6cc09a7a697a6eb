package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/modes"
	"gpm/internal/solver"
)

// span is one timed interval around a call into a layer. Times are
// nanoseconds since the tracer started; parent is the index of the enclosing
// span, or -1.
type span struct {
	name       string
	start, end int64
	parent     int32
}

// tracer keeps the traced run's spans in memory. A nil *tracer is the
// untraced path: every method is a no-op that reads no clock.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0).Nanoseconds(), parent: parent})
	id := int32(len(t.spans) - 1)
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// selfNs sums each span name's self time — its duration minus the part its
// direct children cover — over the spans that start at or after fromNs.
func (t *tracer) selfNs(fromNs int64) map[string]int64 {
	out := map[string]int64{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.start < fromNs {
			continue
		}
		out[s.name] += s.end - s.start
		if s.parent >= 0 && t.spans[s.parent].start >= fromNs {
			out[t.spans[s.parent].name] -= s.end - s.start
		}
	}
	return out
}

// write stores the spans as JSON lines, one per span, capped at maxSpans
// (the cap is recorded in the header line).
func (t *tracer) write(path string, maxSpans int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n := len(t.spans)
	if n > maxSpans {
		n = maxSpans
	}
	fmt.Fprintf(w, "{\"spans\":%d,\"written\":%d}\n", len(t.spans), n)
	for i := 0; i < n; i++ {
		s := &t.spans[i]
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n", i, s.name, s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// solvePath classifies one session solve by the SessionStats counter it
// moved.
type solvePath int

const (
	pathNone solvePath = iota // not a session solve
	pathCold
	pathWarm
	pathMemo
	pathDelta
)

// timedPolicy decorates a policy with a span and a timer around Decide. It
// changes no decision: Decide returns the inner policy's vector unchanged.
type timedPolicy struct {
	inner core.Policy
	tr    *tracer
	// lastNs and lastPath describe the most recent Decide call.
	lastNs   int64
	lastPath solvePath
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Decide(ctx core.Context) modes.Vector {
	id := p.tr.begin("core.policy")
	t0 := time.Now()
	v := p.inner.Decide(ctx)
	p.lastNs = time.Since(t0).Nanoseconds()
	p.tr.end(id)
	p.lastPath = pathNone
	return v
}

// sessionPolicy is the set of optional facets the engine looks for on a
// session-capable policy (core.SolverPolicy built by NewSolverPolicy).
type sessionPolicy interface {
	core.Policy
	EnsureSession()
	CloseSession()
	InvalidateSession()
	SessionStats() (solver.SessionStats, bool)
	SolveNodes() (int64, bool)
}

// timedSessionPolicy is timedPolicy for a session-capable policy. It
// forwards all five session facets, so the engine still adopts, invalidates
// and reports the inner policy's warm-start session.
type timedSessionPolicy struct {
	timedPolicy
	sess sessionPolicy
}

func (p *timedSessionPolicy) EnsureSession()            { p.sess.EnsureSession() }
func (p *timedSessionPolicy) CloseSession()             { p.sess.CloseSession() }
func (p *timedSessionPolicy) InvalidateSession()        { p.sess.InvalidateSession() }
func (p *timedSessionPolicy) SolveNodes() (int64, bool) { return p.sess.SolveNodes() }
func (p *timedSessionPolicy) SessionStats() (solver.SessionStats, bool) {
	return p.sess.SessionStats()
}

func (p *timedSessionPolicy) Decide(ctx core.Context) modes.Vector {
	before, on := p.sess.SessionStats()
	v := p.timedPolicy.Decide(ctx)
	if !on {
		return v
	}
	after, _ := p.sess.SessionStats()
	switch {
	case after.MemoHits > before.MemoHits:
		p.lastPath = pathMemo
	case after.DeltaCertified > before.DeltaCertified:
		p.lastPath = pathDelta
	case after.WarmFloored > before.WarmFloored:
		p.lastPath = pathWarm
	default:
		p.lastPath = pathCold
	}
	return v
}

// policyTimer is what the benchmark reads back from a decorated policy.
type policyTimer interface {
	core.Policy
	last() (ns int64, path solvePath)
}

func (p *timedPolicy) last() (int64, solvePath) { return p.lastNs, p.lastPath }

// decorate wraps p for a traced run, keeping the session facets visible when
// p has them.
func decorate(p core.Policy, tr *tracer) policyTimer {
	if sp, ok := p.(sessionPolicy); ok {
		return &timedSessionPolicy{timedPolicy: timedPolicy{inner: p, tr: tr}, sess: sp}
	}
	return &timedPolicy{inner: p, tr: tr}
}

// decisionLog is the engine.Observer the benchmark attaches: it keeps the
// latest decision's DecideNs and middleware-chain time and, when collect is
// set, every decision's DecideNs.
type decisionLog struct {
	lastDecideNs, lastChainNs int64
	collect                   bool
	decideNs                  []int64
	onDecision                func(decideNs, chainNs int64)
}

func (d *decisionLog) Decision(t *engine.DecisionTrace) {
	var chain int64
	for i := range t.Stages {
		chain += t.Stages[i].DurNs
	}
	d.lastDecideNs, d.lastChainNs = t.DecideNs, chain
	if d.collect {
		d.decideNs = append(d.decideNs, t.DecideNs)
	}
	if d.onDecision != nil {
		d.onDecision(t.DecideNs, chain)
	}
}

func (d *decisionLog) RunEnd(*engine.Result) {}
