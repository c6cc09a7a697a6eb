package main

import (
	"os"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkSolver/bb/cores=64-8    424    2612470 ns/op    12345 nodes/op    2048 B/op    12 allocs/op")
	if !ok {
		t.Fatal("line not recognized")
	}
	if r.Name != "BenchmarkSolver/bb/cores=64" || r.Procs != 8 {
		t.Fatalf("name %q procs %d", r.Name, r.Procs)
	}
	if r.Iterations != 424 {
		t.Fatalf("iterations %d", r.Iterations)
	}
	want := map[string]float64{"ns/op": 2612470, "nodes/op": 12345, "B/op": 2048, "allocs/op": 12}
	for unit, v := range want {
		if r.Metrics[unit] != v {
			t.Fatalf("%s = %v, want %v", unit, r.Metrics[unit], v)
		}
	}

	// Only the last -N is GOMAXPROCS: a sub-benchmark name that itself ends
	// in -<digits> keeps them (and reads as procs when GOMAXPROCS is 1, which
	// is why benchmark names use .../cores=N instead).
	r, ok = parseLine("BenchmarkEngine/warm-bb-16-2    3    1234 ns/op")
	if !ok || r.Name != "BenchmarkEngine/warm-bb-16" || r.Procs != 2 {
		t.Fatalf("…-16-2: ok %v name %q procs %d", ok, r.Name, r.Procs)
	}

	for _, bad := range []string{
		"PASS",
		"ok  \tgpm/internal/solver\t2.1s",
		"goos: linux",
		"BenchmarkBroken notanumber ns/op",
		"--- BENCH: BenchmarkSolver",
	} {
		if _, ok := parseLine(bad); ok {
			t.Fatalf("line %q should not parse", bad)
		}
	}
}

func TestParseAllRecordsHost(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: gpm/internal/solver
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSolver/bb/cores=8-2    1000    5190 ns/op
PASS
cpu: Other CPU
BenchmarkEngine/warm/cores=4-2    3    1234 ns/op
`
	rows, err := parseAll(strings.NewReader(out), "go1.24.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if rows[0].CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" || rows[1].CPU != "Other CPU" {
		t.Fatalf("cpu %q, %q", rows[0].CPU, rows[1].CPU)
	}
	for _, r := range rows {
		if r.Go != "go1.24.0" || r.Procs != 2 {
			t.Fatalf("%s: go %q procs %d", r.Name, r.Go, r.Procs)
		}
	}
	if rows, err := parseAll(strings.NewReader("PASS\n"), "go1.24.0"); err != nil || rows == nil || len(rows) != 0 {
		t.Fatalf("no benchmark lines: rows %v err %v, want an empty non-nil slice", rows, err)
	}
}

func TestCheckBaseline(t *testing.T) {
	base := `[
  {"name": "BenchmarkSolverWarm/bb-steady/cores=64", "iterations": 10, "metrics": {"allocs/op": 0}},
  {"name": "BenchmarkSolverWarm/hier-drift/cores=256", "iterations": 10, "metrics": {"allocs/op": 75}},
  {"name": "BenchmarkSolver/bb/cores=64", "iterations": 10, "metrics": {"allocs/op": 217}}
]`
	dir := t.TempDir()
	path := dir + "/base.json"
	if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	row := func(name string, allocs float64) Result {
		return Result{Name: name, Iterations: 10, Metrics: map[string]float64{"allocs/op": allocs}}
	}
	// Within baseline (exact match + inside slack) passes.
	ok := []Result{
		row("BenchmarkSolverWarm/bb-steady/cores=64", 0),
		row("BenchmarkSolverWarm/hier-drift/cores=256", 78), // 75*1.05 = 78.75
		row("BenchmarkSolver/bb/cores=64", 999),             // not matched by selector
	}
	if err := checkBaseline(ok, path, "SolverWarm", 1.05, "", 1.5); err != nil {
		t.Fatalf("within-baseline results rejected: %v", err)
	}
	// A 0-alloc baseline admits no fresh allocations at any slack.
	bad := []Result{row("BenchmarkSolverWarm/bb-steady/cores=64", 1)}
	if err := checkBaseline(bad, path, "SolverWarm", 1.05, "", 1.5); err == nil {
		t.Fatal("alloc regression on a 0-alloc baseline not caught")
	}
	// Exceeding slack on a non-zero baseline fails.
	bad2 := []Result{row("BenchmarkSolverWarm/hier-drift/cores=256", 80)}
	if err := checkBaseline(bad2, path, "SolverWarm", 1.05, "", 1.5); err == nil {
		t.Fatal("alloc regression past slack not caught")
	}
	// A selector that matches nothing must fail loudly, not silently pass.
	if err := checkBaseline(ok, path, "Renamed", 1.05, "", 1.5); err == nil {
		t.Fatal("disarmed gate (no matching rows) not reported")
	}
	// Rows with no baseline counterpart are skipped, but the run still
	// needs at least one comparison.
	novel := []Result{row("BenchmarkSolverWarm/new-row", 5)}
	if err := checkBaseline(novel, path, "SolverWarm", 1.05, "", 1.5); err == nil {
		t.Fatal("zero comparisons should be an error")
	}
}

func TestCheckBaselineLatency(t *testing.T) {
	base := `[
  {"name": "BenchmarkSolverWarm/bb-steady/cores=1024", "iterations": 10, "metrics": {"ns/op": 70, "allocs/op": 0}},
  {"name": "BenchmarkSolverWarm/bb-drift/cores=1024", "iterations": 10, "metrics": {"ns/op": 5600, "allocs/op": 0}}
]`
	dir := t.TempDir()
	path := dir + "/base.json"
	if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	row := func(name string, ns float64) Result {
		return Result{Name: name, Iterations: 10, Metrics: map[string]float64{"ns/op": ns, "allocs/op": 0}}
	}
	ok := []Result{
		row("BenchmarkSolverWarm/bb-steady/cores=1024", 100), // 70*1.5 = 105
		row("BenchmarkSolverWarm/bb-drift/cores=1024", 8000), // 5600*1.5 = 8400
	}
	if err := checkBaseline(ok, path, "SolverWarm", 1.05, "bb-steady|bb-drift", 1.5); err != nil {
		t.Fatalf("within-slack latency rejected: %v", err)
	}
	// Past the slack fails.
	slow := []Result{row("BenchmarkSolverWarm/bb-steady/cores=1024", 120)}
	if err := checkBaseline(slow, path, "SolverWarm", 1.05, "bb-steady", 1.5); err == nil {
		t.Fatal("latency regression past slack not caught")
	}
	// An ns selector matching nothing must fail loudly.
	if err := checkBaseline(ok, path, "SolverWarm", 1.05, "Renamed", 1.5); err == nil {
		t.Fatal("disarmed ns gate not reported")
	}
}

func TestCheckCaps(t *testing.T) {
	rows := []Result{
		{Name: "BenchmarkSolverWarm/bb-steady/cores=1024", Metrics: map[string]float64{"ns/op": 66}},
		{Name: "BenchmarkFleetEpochSteady", Metrics: map[string]float64{"ns/op": 130}},
	}
	if err := checkCaps(rows, ""); err != nil {
		t.Fatalf("empty spec must be a no-op: %v", err)
	}
	if err := checkCaps(rows, "bb-steady=1000,FleetEpochSteady=6500"); err != nil {
		t.Fatalf("under-cap rows rejected: %v", err)
	}
	if err := checkCaps(rows, "bb-steady=50"); err == nil {
		t.Fatal("over-cap row not caught")
	}
	if err := checkCaps(rows, "NoSuchRow=1000"); err == nil {
		t.Fatal("cap matching no row must fail loudly")
	}
	if err := checkCaps(rows, "missing-equals"); err == nil {
		t.Fatal("malformed pair accepted")
	}
}
