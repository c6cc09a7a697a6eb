package obs

import (
	"bufio"
	"fmt"
	"io"

	"gpm/internal/engine"
	"gpm/internal/report"
)

// recordOf converts the engine's reusable DecisionTrace into a standalone
// Record, copying every slice the engine will overwrite next interval. The
// true-observation series are emitted only when a fault stage actually
// replaced the samples (the common fault-free case stays half the size).
func recordOf(t *engine.DecisionTrace) Record {
	n := len(t.Samples)
	rec := Record{
		Interval:   t.Interval,
		NowNs:      t.Now.Nanoseconds(),
		BudgetW:    t.BudgetW,
		ChipPowerW: t.ChipPowerW,
		PowerW:     make([]float64, n),
		Instr:      make([]float64, n),
		Vector:     make([]int, len(t.Final)),
		Guard:      t.GuardEmergency,
		StallNs:    t.Stall.Nanoseconds(),
		DecideNs:   t.DecideNs,
	}
	for c, s := range t.Samples {
		rec.PowerW[c] = s.PowerW
		rec.Instr[c] = s.Instr
	}
	perturbed := len(t.TrueSamples) > 0 && len(t.Samples) > 0 && &t.TrueSamples[0] != &t.Samples[0]
	if perturbed {
		rec.TruePowerW = make([]float64, len(t.TrueSamples))
		rec.TrueInstr = make([]float64, len(t.TrueSamples))
		for c, s := range t.TrueSamples {
			rec.TruePowerW[c] = s.PowerW
			rec.TrueInstr[c] = s.Instr
		}
	}
	if len(t.Stages) > 0 {
		rec.Stages = make([]StageRec, len(t.Stages))
		for i, s := range t.Stages {
			rec.Stages[i] = StageRec{Name: s.Name, BudgetW: s.BudgetW, Override: s.Override, DurNs: s.DurNs}
		}
	}
	for c, m := range t.Final {
		rec.Vector[c] = int(m)
	}
	if t.Candidate != nil {
		rec.Candidate = make([]int, len(t.Candidate))
		for c, m := range t.Candidate {
			rec.Candidate[c] = int(m)
		}
	}
	if t.Supervised {
		rec.Sup = true
		rec.SupRung = t.SupRung
		rec.SupRejected = t.SupRejected
		rec.SupRepaired = t.SupRepaired
		rec.SupPredPowerW = t.SupPredPowerW
		rec.SupTimedOut = t.SupTimedOut
	}
	return rec
}

// footerOf snapshots a finished Result into the trace Footer.
func footerOf(r *engine.Result, records int, traceFP uint64) *Footer {
	f := &Footer{
		Records:          records,
		Fingerprint:      fmt.Sprintf("%016x", ResultFingerprint(r)),
		TraceFingerprint: fmt.Sprintf("%016x", traceFP),
		ElapsedNs:        r.Elapsed.Nanoseconds(),
		TotalInstr:       r.TotalInstr,
		EnergyJ:          r.EnergyJ,

		EmergencyEntries:   r.EmergencyEntries,
		EmergencyIntervals: r.EmergencyIntervals,
		RecoveryLatencyNs:  r.RecoveryLatency.Nanoseconds(),
		SanitizedSamples:   r.SanitizedSamples,
		RescaledIntervals:  r.RescaledIntervals,

		Decisions:      r.Obs.Decisions,
		GuardOverrides: r.Obs.GuardOverrides,
		SolverNodes:    r.Obs.SolverNodes,
	}
	if len(r.DeadCores) > 0 {
		f.DeadCores = append([]int(nil), r.DeadCores...)
	}
	for _, so := range r.Obs.StageOverrides {
		f.StageOverrides = append(f.StageOverrides, StageCount{Stage: so.Stage, Count: so.Count})
	}
	supervised := false
	for _, n := range r.Obs.SupervisorRungs {
		if n > 0 {
			supervised = true
		}
	}
	if supervised {
		f.SupervisorRungs = append([]int(nil), r.Obs.SupervisorRungs[:]...)
		f.ConformanceRejects = r.Obs.ConformanceRejects
		f.ConformanceRepairs = r.Obs.ConformanceRepairs
		f.DeadlineTimeouts = r.Obs.DeadlineTimeouts
		f.WedgedDecisions = r.Obs.WedgedDecisions
		f.DegradedDecisions = r.Obs.DegradedDecisions
		f.LongestDegraded = r.Obs.LongestDegraded
	}
	return f
}

// Writer streams a run to JSONL as it happens: the manifest at construction,
// one decision line per explore interval, the footer at RunEnd. Errors are
// sticky — the first write failure is reported by Err/Close and later calls
// are no-ops, so the engine loop never has to check mid-run.
type Writer struct {
	bw      *bufio.Writer
	closer  io.Closer
	err     error
	records int
	th      Hasher
	guarded bool
}

// NewWriter starts a trace on w with the given manifest (nil writes no
// manifest line; replay then needs external configuration). If w is also an
// io.Closer, Close closes it.
func NewWriter(w io.Writer, m *Manifest) (*Writer, error) {
	tw := &Writer{bw: bufio.NewWriter(w), th: NewHasher()}
	if c, ok := w.(io.Closer); ok {
		tw.closer = c
	}
	if m != nil {
		mm := *m
		mm.Schema = SchemaVersion
		tw.guarded = mm.Guarded
		b, err := MarshalLine(&Line{Kind: KindManifest, Manifest: &mm})
		if err != nil {
			return nil, err
		}
		if _, err := tw.bw.Write(b); err != nil {
			return nil, err
		}
	}
	return tw, nil
}

// Decision implements engine.Observer.
func (w *Writer) Decision(t *engine.DecisionTrace) {
	if w.err != nil {
		return
	}
	rec := recordOf(t)
	hashRecord(&w.th, &rec)
	b, err := MarshalLine(&Line{Kind: KindDecision, Decision: &rec})
	if err != nil {
		w.err = err
		return
	}
	if _, err := w.bw.Write(b); err != nil {
		w.err = err
		return
	}
	w.records++
}

// RunEnd implements engine.Observer: writes the footer.
func (w *Writer) RunEnd(r *engine.Result) {
	if w.err != nil {
		return
	}
	f := footerOf(r, w.records, w.th.Sum())
	f.Guarded = w.guarded || r.EmergencyEntries > 0 || r.SanitizedSamples > 0 ||
		r.RescaledIntervals > 0 || len(r.DeadCores) > 0 || r.Obs.GuardOverrides > 0
	b, err := MarshalLine(&Line{Kind: KindFooter, Footer: f})
	if err != nil {
		w.err = err
		return
	}
	if _, err := w.bw.Write(b); err != nil {
		w.err = err
	}
}

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

// Close flushes and closes the underlying writer (when it is a Closer) and
// returns the first error seen over the writer's lifetime.
func (w *Writer) Close() error {
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if w.closer != nil {
		if err := w.closer.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	return w.err
}

// Collector is the in-memory engine.Observer: it accumulates a full Trace
// for tests and for trace diffing without touching the filesystem.
type Collector struct {
	Manifest *Manifest
	trace    Trace
	th       Hasher
	guarded  bool
}

// NewCollector builds a collector; m may be nil.
func NewCollector(m *Manifest) *Collector {
	c := &Collector{Manifest: m, th: NewHasher()}
	if m != nil {
		mm := *m
		mm.Schema = SchemaVersion
		c.trace.Manifest = &mm
		c.guarded = mm.Guarded
	}
	return c
}

// Decision implements engine.Observer.
func (c *Collector) Decision(t *engine.DecisionTrace) {
	rec := recordOf(t)
	hashRecord(&c.th, &rec)
	c.trace.Records = append(c.trace.Records, rec)
}

// RunEnd implements engine.Observer.
func (c *Collector) RunEnd(r *engine.Result) {
	f := footerOf(r, len(c.trace.Records), c.th.Sum())
	f.Guarded = c.guarded || r.EmergencyEntries > 0 || r.SanitizedSamples > 0 ||
		r.RescaledIntervals > 0 || len(r.DeadCores) > 0 || r.Obs.GuardOverrides > 0
	c.trace.Footer = f
}

// Trace returns the collected trace (valid after the run ends).
func (c *Collector) Trace() *Trace { return &c.trace }

// Multi fans one engine.Observer stream out to several (e.g. a Writer to
// disk plus a Collector for an in-run diff).
type Multi []engine.Observer

// Decision implements engine.Observer.
func (m Multi) Decision(t *engine.DecisionTrace) {
	for _, o := range m {
		o.Decision(t)
	}
}

// RunEnd implements engine.Observer.
func (m Multi) RunEnd(r *engine.Result) {
	for _, o := range m {
		o.RunEnd(r)
	}
}

// Compile-time proof the implementations satisfy the engine hook.
var (
	_ engine.Observer = (*Writer)(nil)
	_ engine.Observer = (*Collector)(nil)
	_ engine.Observer = (Multi)(nil)
)

// CountersTable renders the engine's observability counter snapshot as a
// report table: decisions, per-stage overrides, guard throttles, solver
// nodes, trace records.
func CountersTable(o engine.ObsCounters) *report.Table {
	t := report.NewTable("observability counters", "counter", "value")
	t.AddRowf("decisions", o.Decisions)
	for _, so := range o.StageOverrides {
		t.AddRowf("overrides["+so.Stage+"]", so.Count)
	}
	t.AddRowf("guard-overrides", o.GuardOverrides)
	t.AddRowf("solver-nodes", o.SolverNodes)
	t.AddRowf("trace-records", o.TraceRecords)
	if o.SolverMemoHits != 0 || o.SolverWarmSolves != 0 {
		t.AddRowf("warm-hints", o.WarmHints)
		t.AddRowf("solver-memo-hits", o.SolverMemoHits)
		t.AddRowf("solver-warm-solves", o.SolverWarmSolves)
		t.AddRowf("solver-hint-returns", o.SolverHintReturns)
	}
	supervised := false
	for _, n := range o.SupervisorRungs {
		if n > 0 {
			supervised = true
		}
	}
	if supervised {
		for rung, n := range o.SupervisorRungs {
			t.AddRowf(fmt.Sprintf("sup-rung[%d]", rung), n)
		}
		t.AddRowf("sup-conf-rejects", o.ConformanceRejects)
		t.AddRowf("sup-conf-repairs", o.ConformanceRepairs)
		t.AddRowf("sup-timeouts", o.DeadlineTimeouts)
		t.AddRowf("sup-wedged", o.WedgedDecisions)
		t.AddRowf("sup-degraded", o.DegradedDecisions)
		t.AddRowf("sup-longest-degraded", o.LongestDegraded)
	}
	return t
}
