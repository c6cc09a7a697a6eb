// Command benchjson converts `go test -bench` text output (read from stdin)
// into a JSON array, one object per benchmark result line:
//
//	go test -run '^$' -bench BenchmarkSolver -benchmem ./internal/solver | benchjson
//
// Each object carries the benchmark name, GOMAXPROCS suffix, iteration count,
// and every reported metric keyed by its unit (ns/op, B/op, allocs/op, and
// any b.ReportMetric custom units such as nodes/op). Each object also records
// the host it ran on: the CPU model from `go test`'s "cpu:" header and the Go
// version benchjson was built with, which under `go run` is the toolchain
// that ran the benchmarks. Other non-benchmark lines are ignored, so the full
// `go test` output can be piped through unfiltered.
//
// With -check baseline.json, benchjson instead compares the fresh results
// against a committed baseline and exits non-zero on allocation regressions:
// every row present in both whose name matches -match (default: the warm /
// steady-state session rows) must not report more allocs/op than the
// baseline row times the -slack factor. A 0-alloc baseline therefore admits
// zero fresh allocations — the steady-state contract `make bench-check`
// enforces in CI.
//
// Two further gates ride along with -check, both off by default:
//
//   - -ns-match selects rows whose ns/op must stay within -ns-slack × the
//     baseline row (latency regression tolerance for steady-state rows);
//   - -ns-cap "regex=ns[,regex=ns...]" pins absolute ns/op ceilings on fresh
//     rows (hard numbers, independent of any baseline).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Go         string             `json:"go,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	check := flag.String("check", "", "baseline JSON to compare fresh results against (allocs/op gate)")
	match := flag.String("match", "SolverWarm|steady|drift|warm-", "regexp selecting rows the -check gate applies to")
	slack := flag.Float64("slack", 1.05, "multiplicative headroom over the baseline allocs/op (0-alloc baselines admit none)")
	nsMatch := flag.String("ns-match", "", "regexp selecting rows whose ns/op is gated against the baseline (empty: off)")
	nsSlack := flag.Float64("ns-slack", 1.5, "multiplicative headroom over the baseline ns/op for -ns-match rows")
	nsCap := flag.String("ns-cap", "", "comma-separated regex=ns pairs pinning absolute ns/op ceilings on fresh rows")
	flag.Parse()

	results, err := parseAll(os.Stdin, runtime.Version())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *check != "" {
		if err := checkBaseline(results, *check, *match, *slack, *nsMatch, *nsSlack); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := checkCaps(results, *nsCap); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// checkBaseline fails when a fresh row matching the selector reports more
// allocs/op than its baseline counterpart allows. Rows missing from either
// side are skipped (new benchmarks land before their baseline is committed;
// retired ones linger in old baselines), but a run in which the selector
// matches nothing at all is an error — a renamed benchmark must not silently
// disarm the gate.
func checkBaseline(fresh []Result, path, match string, slack float64, nsMatch string, nsSlack float64) error {
	sel, err := regexp.Compile(match)
	if err != nil {
		return fmt.Errorf("bad -match regexp: %v", err)
	}
	var nsSel *regexp.Regexp
	if nsMatch != "" {
		if nsSel, err = regexp.Compile(nsMatch); err != nil {
			return fmt.Errorf("bad -ns-match regexp: %v", err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base []Result
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	baseline := make(map[string]Result, len(base))
	for _, r := range base {
		baseline[r.Name] = r
	}
	compared, nsCompared, failed := 0, 0, 0
	for _, r := range fresh {
		allocRow := sel.MatchString(r.Name)
		nsRow := nsSel != nil && nsSel.MatchString(r.Name)
		if !allocRow && !nsRow {
			continue
		}
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %s: no baseline row, skipping\n", r.Name)
			continue
		}
		if allocRow {
			got, gok := r.Metrics["allocs/op"]
			want, wok := b.Metrics["allocs/op"]
			if gok && wok {
				compared++
				if got > want*slack {
					failed++
					fmt.Fprintf(os.Stderr, "benchjson: ALLOC REGRESSION %s: %g allocs/op, baseline %g (slack %.2f)\n",
						r.Name, got, want, slack)
				} else {
					fmt.Fprintf(os.Stderr, "benchjson: ok %s: %g allocs/op (baseline %g)\n", r.Name, got, want)
				}
			}
		}
		if nsRow {
			got, gok := r.Metrics["ns/op"]
			want, wok := b.Metrics["ns/op"]
			if gok && wok {
				nsCompared++
				if got > want*nsSlack {
					failed++
					fmt.Fprintf(os.Stderr, "benchjson: LATENCY REGRESSION %s: %g ns/op, baseline %g (slack %.2f)\n",
						r.Name, got, want, nsSlack)
				} else {
					fmt.Fprintf(os.Stderr, "benchjson: ok %s: %g ns/op (baseline %g, slack %.2f)\n", r.Name, got, want, nsSlack)
				}
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("no rows matched %q against %s — gate disarmed?", match, path)
	}
	if nsSel != nil && nsCompared == 0 {
		return fmt.Errorf("no rows matched -ns-match %q against %s — gate disarmed?", nsMatch, path)
	}
	if failed > 0 {
		return fmt.Errorf("%d regression(s) vs %s", failed, path)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d alloc row(s), %d latency row(s) within baseline %s\n", compared, nsCompared, path)
	return nil
}

// checkCaps enforces absolute ns/op ceilings: spec is a comma-separated list
// of regex=ns pairs; every pair must match at least one fresh row, and every
// matched row must run under its ceiling.
func checkCaps(fresh []Result, spec string) error {
	if spec == "" {
		return nil
	}
	for _, pair := range strings.Split(spec, ",") {
		i := strings.LastIndex(pair, "=")
		if i < 0 {
			return fmt.Errorf("bad -ns-cap pair %q (want regex=ns)", pair)
		}
		sel, err := regexp.Compile(pair[:i])
		if err != nil {
			return fmt.Errorf("bad -ns-cap regexp %q: %v", pair[:i], err)
		}
		cap, err := strconv.ParseFloat(pair[i+1:], 64)
		if err != nil {
			return fmt.Errorf("bad -ns-cap ceiling %q: %v", pair[i+1:], err)
		}
		matched := 0
		for _, r := range fresh {
			got, ok := r.Metrics["ns/op"]
			if !sel.MatchString(r.Name) || !ok {
				continue
			}
			matched++
			if got > cap {
				return fmt.Errorf("CEILING %s: %g ns/op exceeds the %g ns cap", r.Name, got, cap)
			}
			fmt.Fprintf(os.Stderr, "benchjson: ok %s: %g ns/op under the %g ns cap\n", r.Name, got, cap)
		}
		if matched == 0 {
			return fmt.Errorf("no rows matched -ns-cap %q — gate disarmed?", pair[:i])
		}
	}
	return nil
}

// parseAll reads `go test -bench` output and returns its benchmark rows,
// each tagged with the most recent "cpu:" header and goVersion.
func parseAll(in io.Reader, goVersion string) ([]Result, error) {
	results := []Result{}
	var cpu string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if model, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = strings.TrimSpace(model)
		} else if r, ok := parseLine(line); ok {
			r.CPU, r.Go = cpu, goVersion
			results = append(results, r)
		}
	}
	return results, sc.Err()
}

// parseLine decodes the standard benchmark format:
//
//	BenchmarkName-8   124   9_471 ns/op   512 B/op   7 allocs/op
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false
	}
	r := Result{Name: f[0], Metrics: map[string]float64{}}
	if i := strings.LastIndex(f[0], "-"); i >= 0 {
		if procs, err := strconv.Atoi(f[0][i+1:]); err == nil {
			r.Name, r.Procs = f[0][:i], procs
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	if len(r.Metrics) == 0 {
		return Result{}, false
	}
	return r, true
}
