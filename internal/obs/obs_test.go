package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"gpm/internal/config"
	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/fault"
	"gpm/internal/modes"
	"gpm/internal/solver"
)

// fakeSub is a deterministic synthetic substrate (physics match the §5.5
// predictor exactly), so obs tests exercise record/replay without trace
// characterization or cycle-level simulation underneath.
type fakeSub struct {
	plan       modes.Plan
	baseP      []float64
	rate       []float64
	exploreSec float64
}

func newFakeSub(plan modes.Plan, baseP, rate []float64, exploreSec float64) *fakeSub {
	return &fakeSub{plan: plan, baseP: baseP, rate: rate, exploreSec: exploreSec}
}

func (s *fakeSub) NumCores() int { return len(s.baseP) }

func (s *fakeSub) Bootstrap() []core.Sample {
	out := make([]core.Sample, len(s.baseP))
	for c := range out {
		out[c] = core.Sample{PowerW: s.baseP[c], Instr: s.rate[c] * s.exploreSec}
	}
	return out
}

func (s *fakeSub) ModePowerW(c int, m modes.Mode) float64 {
	return s.baseP[c] * s.plan.PowerScale(m)
}

func (s *fakeSub) DeltaStep(v modes.Vector, execSec float64, live []bool, energyJ, instr []float64) {
	for c := range live {
		if !live[c] {
			continue
		}
		energyJ[c] = s.baseP[c] * s.plan.PowerScale(v[c]) * execSec
		instr[c] = s.rate[c] * s.plan.FreqScale(v[c]) * execSec
	}
}

func (s *fakeSub) Finished(c int) bool { return false }

func (s *fakeSub) Lookahead() func(c int, m modes.Mode) (float64, float64) { return nil }

func (s *fakeSub) MemBound() []float64 { return nil }

func testPlan(t testing.TB) modes.Plan {
	t.Helper()
	cfg := config.Default(4)
	return modes.Default(cfg.Chip.NominalVdd, cfg.Chip.TransitionRateVPerUs)
}

// newDecider is engine.NewDecider without a history table, for fixtures
// whose guard settings are known valid.
func newDecider(t testing.TB, plan modes.Plan, policy core.Policy, pred core.MatrixPredictor, n int, guard *core.GuardConfig) engine.Decider {
	t.Helper()
	d, err := engine.NewDecider(plan, policy, pred, n, guard, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// testOptions builds a guarded, fault-injected 4-core run — every record
// field (true vs observed samples, stage overrides, guard state) gets
// exercised.
func testOptions(t testing.TB, plan modes.Plan, budgetW float64) engine.Options {
	t.Helper()
	inj, err := fault.NewInjector(fault.Scenario{Seed: 11, PowerNoiseSigma: 0.10, DropProb: 0.05}, 4)
	if err != nil {
		t.Fatal(err)
	}
	pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6}
	return engine.Options{
		Plan:             plan,
		Budget:           func(time.Duration) float64 { return budgetW },
		Decider:          newDecider(t, plan, core.MaxBIPS{}, pred, 4, &core.GuardConfig{}),
		DeltaSim:         50 * time.Microsecond,
		DeltasPerExplore: 10,
		Horizon:          3 * time.Millisecond,
		Injector:         inj,
	}
}

func testManifest() *Manifest {
	return &Manifest{
		Tool:             "obs_test",
		Substrate:        "fake",
		Policy:           "MaxBIPS",
		Cores:            4,
		DeltaSimNs:       50_000,
		DeltasPerExplore: 10,
		ExploreNs:        500_000,
		HorizonNs:        3_000_000,
		FaultSpec:        "seed=11,noise=0.10,drop=0.05",
		Guarded:          true,
	}
}

func runTraced(t *testing.T, o engine.Observer) *engine.Result {
	t.Helper()
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 18, 16, 14}, []float64{4e9, 3e9, 2e9, 1e9}, 500e-6)
	opt := testOptions(t, plan, 45)
	opt.Observer = o
	res, err := engine.Run(sub, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWriterCollectorAgree runs the same configuration through the streaming
// JSONL Writer and the in-memory Collector: the parsed stream must carry the
// same deterministic content (trace fingerprints equal, Diff nil, footers
// identical) and the footer's self-declared fingerprints must match what a
// reader recomputes.
func TestWriterCollectorAgree(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	resW := runTraced(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	col := NewCollector(testManifest())
	resC := runTraced(t, col)

	if fw, fc := ResultFingerprint(resW), ResultFingerprint(resC); fw != fc {
		t.Fatalf("observer changed the run: writer-run fingerprint %#x, collector-run %#x", fw, fc)
	}

	parsed, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Manifest == nil || parsed.Manifest.Schema != SchemaVersion {
		t.Fatalf("manifest missing or unversioned: %+v", parsed.Manifest)
	}
	if len(parsed.Records) != resW.Obs.Decisions {
		t.Fatalf("parsed %d records, engine made %d decisions", len(parsed.Records), resW.Obs.Decisions)
	}
	if d := Diff(parsed, col.Trace()); d != nil {
		t.Fatalf("writer and collector traces diverge: %v", d)
	}
	if a, b := TraceFingerprint(parsed), TraceFingerprint(col.Trace()); a != b {
		t.Fatalf("trace fingerprints differ: %#x vs %#x", a, b)
	}
	// Footer self-consistency: the streamed fingerprints must match a
	// reader's recomputation.
	f := parsed.Footer
	if f == nil {
		t.Fatal("no footer")
	}
	if want := strings.ToLower(f.TraceFingerprint); want != hex16(TraceFingerprint(parsed)) {
		t.Errorf("footer trace_fingerprint %s, recomputed %s", want, hex16(TraceFingerprint(parsed)))
	}
	if want := strings.ToLower(f.Fingerprint); want != hex16(ResultFingerprint(resW)) {
		t.Errorf("footer fingerprint %s, recomputed %s", want, hex16(ResultFingerprint(resW)))
	}
	if f.Records != len(parsed.Records) || f.Decisions != resW.Obs.Decisions {
		t.Errorf("footer counts records=%d decisions=%d, want %d/%d", f.Records, f.Decisions, len(parsed.Records), resW.Obs.Decisions)
	}
}

func hex16(u uint64) string {
	const digits = "0123456789abcdef"
	b := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		b[i] = digits[u&0xf]
		u >>= 4
	}
	return string(b)
}

// TestReplayBitIdentical records a guarded fault-injected run, then re-drives
// a fresh substrate from the trace: the replayed Result must reproduce the
// original bit for bit, including the guard accounting restored from the
// footer.
func TestReplayBitIdentical(t *testing.T) {
	col := NewCollector(testManifest())
	orig := runTraced(t, col)

	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 18, 16, 14}, []float64{4e9, 3e9, 2e9, 1e9}, 500e-6)
	opt := testOptions(t, plan, 45) // injector still present: core-death physics
	d, err := col.Trace().Decider(500 * time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	dec := d.(*ReplayDecider)
	opt.Decider = dec
	opt.Stages = []engine.Stage{col.Trace().BudgetStage()}
	replayed, err := engine.Run(sub, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ResultFingerprint(orig), ResultFingerprint(replayed); a != b {
		t.Fatalf("replay diverged: original %#x, replayed %#x", a, b)
	}
	if dec.Replayed() != len(col.Trace().Records) {
		t.Errorf("replay consumed %d of %d records", dec.Replayed(), len(col.Trace().Records))
	}
}

// TestRoundTripByteIdentical pins the codec: WriteTrace → ReadTrace →
// WriteTrace must reproduce the bytes exactly.
func TestRoundTripByteIdentical(t *testing.T) {
	col := NewCollector(testManifest())
	runTraced(t, col)

	var b1 bytes.Buffer
	if err := WriteTrace(&b1, col.Trace()); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadTrace(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := WriteTrace(&b2, parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("encode → decode → re-encode is not byte-identical")
	}
}

// TestDecodeErrors pins the typed-error contract: corrupt input never panics
// and always surfaces as *DecodeError with the offending line.
func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"not json", "{"},
		{"unknown kind", `{"kind":"telemetry"}`},
		{"kind without payload", `{"kind":"decision"}`},
		{"two payloads", `{"kind":"decision","decision":{"i":0,"now_ns":0,"budget_w":1,"chip_w":1,"power_w":[],"instr":[],"vector":[],"stall_ns":0},"footer":{"records":0,"fingerprint":"","trace_fingerprint":"","elapsed_ns":0,"total_instr":0,"energy_j":0,"decisions":0}}`},
		{"manifest mid-stream", `{"kind":"decision","decision":{"i":0,"now_ns":0,"budget_w":1,"chip_w":1,"power_w":[],"instr":[],"vector":[],"stall_ns":0}}` + "\n" + `{"kind":"manifest","manifest":{"schema":1,"cores":4,"delta_sim_ns":1,"deltas_per_explore":1,"explore_ns":1,"horizon_ns":1}}`},
		{"newer schema", `{"kind":"manifest","manifest":{"schema":99,"cores":4,"delta_sim_ns":1,"deltas_per_explore":1,"explore_ns":1,"horizon_ns":1}}`},
		{"empty trace", "\n\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("corrupt input accepted")
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("error %T (%v) is not a *DecodeError", err, err)
			}
			if de.Line <= 0 {
				t.Errorf("DecodeError without a line number: %v", de)
			}
		})
	}
}

// TestDiffFirstDivergence pins that Diff names the earliest difference in
// pipeline order, not just any difference.
func TestDiffFirstDivergence(t *testing.T) {
	mk := func() *Trace {
		return &Trace{Records: []Record{
			{Interval: 0, NowNs: 0, BudgetW: 70, ChipPowerW: 60, PowerW: []float64{15, 15}, Instr: []float64{1, 2}, Vector: []int{0, 0}},
			{Interval: 1, NowNs: 500, BudgetW: 70, ChipPowerW: 62, PowerW: []float64{16, 15}, Instr: []float64{1, 2}, Vector: []int{0, 1}},
			{Interval: 2, NowNs: 1000, BudgetW: 70, ChipPowerW: 61, PowerW: []float64{15, 15}, Instr: []float64{1, 2}, Vector: []int{1, 1}},
		}}
	}
	a := mk()
	if d := Diff(a, mk()); d != nil {
		t.Fatalf("identical traces diverge: %v", d)
	}

	b := mk()
	b.Records[1].PowerW[1] = 14       // earliest: interval 1, core 1 observation
	b.Records[1].Vector = []int{1, 1} // downstream symptom, same interval
	b.Records[2].BudgetW = 60         // later interval
	d := Diff(a, b)
	if d == nil {
		t.Fatal("divergence not found")
	}
	if d.Interval != 1 || d.Core != 1 || d.Field != "power_w" {
		t.Errorf("first divergence = interval %d core %d field %s, want 1/1/power_w", d.Interval, d.Core, d.Field)
	}
	if !strings.Contains(d.String(), "interval 1") || !strings.Contains(d.String(), "core 1") {
		t.Errorf("divergence rendering %q misses location", d.String())
	}

	// Mode divergence with identical observations: the decision itself.
	c := mk()
	c.Records[2].Vector = []int{0, 1}
	if d := Diff(a, c); d == nil || d.Field != "mode" || d.Interval != 2 || d.Core != 0 {
		t.Errorf("mode divergence = %+v, want interval 2 core 0 mode", d)
	}

	// Record-count mismatch after an identical prefix.
	short := mk()
	short.Records = short.Records[:2]
	if d := Diff(a, short); d == nil || d.Field != "records" || d.Interval != 2 {
		t.Errorf("count divergence = %+v, want records @2", d)
	}
}

// TestCountersSnapshot checks the engine's always-on counters land in the
// Result and render through internal/report.
func TestCountersSnapshot(t *testing.T) {
	col := NewCollector(nil)
	res := runTraced(t, col)
	if res.Obs.Decisions == 0 || res.Obs.Decisions != len(col.Trace().Records) {
		t.Fatalf("Decisions=%d, records=%d", res.Obs.Decisions, len(col.Trace().Records))
	}
	if res.Obs.TraceRecords != res.Obs.Decisions {
		t.Errorf("TraceRecords=%d, want %d", res.Obs.TraceRecords, res.Obs.Decisions)
	}
	if len(res.Obs.StageOverrides) == 0 {
		t.Fatal("no per-stage override counters")
	}
	// The fault-observe stage replaces the sample slice whenever the
	// injector perturbs anything; with 10% noise it must fire.
	found := false
	for _, so := range res.Obs.StageOverrides {
		if so.Stage == "fault-observe" && so.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("fault-observe overrides not counted: %+v", res.Obs.StageOverrides)
	}
	out := CountersTable(res.Obs).String()
	for _, want := range []string{"decisions", "overrides[fault-observe]", "trace-records"} {
		if !strings.Contains(out, want) {
			t.Errorf("counters table missing %q:\n%s", want, out)
		}
	}

	// The session rows render exactly when a session counter is live, and
	// stay out of the table for cold (sessionless) runs.
	var o engine.ObsCounters
	if cold := CountersTable(o).String(); strings.Contains(cold, "solver-memo-hits") {
		t.Errorf("cold counters table has session rows:\n%s", cold)
	}
	o.SolverMemoHits = 3
	out = CountersTable(o).String()
	for _, want := range []string{"warm-hints", "solver-memo-hits", "solver-warm-solves", "solver-hint-returns"} {
		if !strings.Contains(out, want) {
			t.Errorf("counters table missing %q:\n%s", want, out)
		}
	}
}

// TestSolverNodeCounting wires a counting SolverPolicy through the engine and
// checks the node total reaches Result.Obs.
func TestSolverNodeCounting(t *testing.T) {
	plan := testPlan(t)
	sub := newFakeSub(plan, []float64{20, 18, 16, 14}, []float64{4e9, 3e9, 2e9, 1e9}, 500e-6)
	var nodes int64
	pol := core.SolverPolicy{Solver: solver.Greedy{}, NodeCount: &nodes}
	pred := core.Predictor{Plan: plan, ExploreSeconds: 500e-6}
	opt := engine.Options{
		Plan:             plan,
		Budget:           func(time.Duration) float64 { return 45 },
		Decider:          newDecider(t, plan, pol, pred, 4, nil),
		DeltaSim:         50 * time.Microsecond,
		DeltasPerExplore: 10,
		Horizon:          2 * time.Millisecond,
	}
	res, err := engine.Run(sub, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs.SolverNodes == 0 {
		t.Fatal("solver nodes not folded into Result.Obs")
	}
	if res.Obs.SolverNodes != nodes {
		t.Errorf("Result.Obs.SolverNodes=%d, sink=%d", res.Obs.SolverNodes, nodes)
	}
}
