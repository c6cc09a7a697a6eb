package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"gpm/internal/cmpsim"
	"gpm/internal/core"
	"gpm/internal/experiment"
	"gpm/internal/obs"
	"gpm/internal/solver"
	"gpm/internal/workload"
)

func TestSameSeedSameInputs(t *testing.T) {
	gens := map[string]func(int64) any{
		"table2-mix":     func(s int64) any { return genTable2(s) },
		"fleet-brownout": func(s int64) any { return genFleet(s) },
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

func TestInputsStayInRange(t *testing.T) {
	for _, f := range genCycle().Levels {
		if f < budgetLo || f > budgetHi {
			t.Fatalf("cycle-level budget %v outside [%v, %v]", f, budgetLo, budgetHi)
		}
	}
	for seed := int64(0); seed < 50; seed++ {
		var fracs []float64
		for _, c := range genTable2(seed) {
			fracs = append(fracs, c.BudgetFrac)
		}
		for _, f := range fracs {
			if f < budgetLo || f > budgetHi {
				t.Fatalf("seed %d: budget %v outside [%v, %v]", seed, f, budgetLo, budgetHi)
			}
		}
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, got []metricDef) {
		if !reflect.DeepEqual(defs, got) {
			t.Errorf("%s metrics differ from BENCHMARK.json:\n code %v\n json %v", kind, defs, got)
		}
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("bad %s metric %q unit %q", kind, d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("metric %q declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) {
			t.Errorf("bad workload name %q", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", workloadNames, names)
	}
}

func TestTailNeedsTenSamplesBeyondP99(t *testing.T) {
	if err := checkTail("x", 999, 0.99); err == nil {
		t.Error("999 samples accepted for p99")
	}
	if err := checkTail("x", 1000, 0.99); err != nil {
		t.Errorf("1000 samples rejected for p99: %v", err)
	}
}

// shortStream is a workload whose decision stream never grows long enough
// for a trusted p99.
type shortStream struct{}

func (shortStream) setup(*bench) error  { return nil }
func (shortStream) ops() int            { return 1 }
func (shortStream) describe() string    { return "short" }
func (shortStream) qualifiedTail() bool { return true }
func (shortStream) op(b *bench, _ int) (outcome, error) {
	b.decideUs = append(b.decideUs, 1)
	return outcome{fp: 1, simMs: 1, lossPct: 1, overshoot: 1, deltas: 1}, nil
}

func TestRunWithShortTailIsRejected(t *testing.T) {
	b := &bench{ls: newLayerStats(), workers: 1}
	rep, _ := timedRun(shortStream{}, b, 0.01, 1)
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("run with %d decisions reported correct", len(b.decideUs))
	}
	if beyond(len(b.decideUs), 0.99) >= minBeyond {
		t.Fatalf("stream grew to %d samples; the test needs a short one", len(b.decideUs))
	}
}

func TestDecoratorForwardsSessionFacets(t *testing.T) {
	env := experiment.NewEnv(4)
	combo := workload.FourWay[0]
	base, err := env.Baseline(combo)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p core.Policy) *cmpsim.Result {
		res, err := cmpsim.Run(env.Lib, combo, cmpsim.Options{
			Budget:    cmpsim.FixedBudget(0.75 * base.EnvelopePowerW()),
			Policy:    p,
			Predictor: env.Predictor(),
			Horizon:   10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(countNodes(core.NewSolverPolicy(&solver.BB{})))
	pt := decorate(countNodes(core.NewSolverPolicy(&solver.BB{})), newTracer())
	if _, ok := pt.(sessionPolicy); !ok {
		t.Fatal("decorated session policy hides its session facets")
	}
	dec := run(pt)
	if dec.Obs.SolverNodes == 0 {
		t.Error("SolveNodes not forwarded: engine saw no solver nodes")
	}
	if dec.Obs.SolverWarmSolves+dec.Obs.DirtyCores+dec.Obs.DeltaSolves == 0 {
		t.Error("SessionStats not forwarded: engine saw no session counters")
	}
	if dec.Obs.SolverNodes != plain.Obs.SolverNodes || dec.Obs.DirtyCores != plain.Obs.DirtyCores {
		t.Errorf("decorated session counters differ: nodes %d vs %d, dirty %d vs %d",
			dec.Obs.SolverNodes, plain.Obs.SolverNodes, dec.Obs.DirtyCores, plain.Obs.DirtyCores)
	}
	if obs.ResultFingerprint(dec) != obs.ResultFingerprint(plain) {
		t.Error("decorating the policy changed the run")
	}
	if _, ok := decorate(core.MaxBIPS{}, nil).(sessionPolicy); ok {
		t.Error("decorated stateless policy claims session facets")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "engine.step", start: 10, end: 50, parent: 0},
		{name: "core.policy", start: 20, end: 30, parent: 1},
	}
	got := tr.selfNs(0)
	want := map[string]int64{"op": 60, "engine.step": 30, "core.policy": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}
