package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit. The lists below are the
// ones BENCHMARK.json declares (a test keeps the two in step).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_ms_per_s", "ms/s"},
	{"decide_p50_us", "us"},
	{"decide_p99_us", "us"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"throughput_loss_pct", "%"},
	{"overshoot_pct", "%"},
	{"slo_attain_pct", "%"},
}

// perLayer are the metrics of a traced run.
var perLayer = append([]metricDef{
	{"trace.profile_ms", "ms"},
	{"trace.profiles", "count"},
	{"fullsim.build_warm_ms", "ms"},
	{"fullsim.substrate_share", "ratio"},
	{"fullsim.minstr_per_s", "Minstr/s"},
	{"engine.step_us", "us"},
	{"engine.step_alloc_b", "B"},
	{"engine.chain_us", "us"},
	{"engine.decide_rest_us", "us"},
	{"engine.decisions", "count"},
	{"core.manager_us", "us"},
	{"core.policy_p50_us", "us"},
	{"core.policy_p99_us", "us"},
	{"solver.nodes_per_decision", "count"},
	{"solver.cold_us", "us"},
	{"solver.warm_us", "us"},
	{"solver.memo_hits", "count"},
	{"solver.delta_certified", "count"},
	{"solver.delta_fallbacks", "count"},
	{"solver.dirty_cores_mean", "count"},
	{"solver.fastpath_ratio", "ratio"},
	{"fleet.epoch_skip_ratio", "ratio"},
	{"fleet.dirty_chips_mean", "count"},
	{"fleet.chip_memo_hits", "count"},
	{"obs.overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
	{"share.engine_pct", "%"},
	{"share.core_pct", "%"},
	{"share.fullsim_pct", "%"},
	{"share.fleet_pct", "%"},
}, perPolicyDefs()...)

// perPolicyDefs are the per-policy Decide latencies on table2-mix.
func perPolicyDefs() []metricDef {
	var out []metricDef
	for _, p := range table2Policies {
		out = append(out,
			metricDef{"core.policy_p50_us." + p, "us"},
			metricDef{"core.policy_p99_us." + p, "us"})
	}
	return out
}

// spanLayers maps span names to the layer whose share of the traced wall
// time they count toward.
var spanLayers = map[string]string{
	"engine.new":         "engine",
	"engine.step":        "engine",
	"engine.decide_step": "engine",
	"engine.finish":      "engine",
	"core.policy":        "core",
	"fullsim.build_warm": "fullsim",
	"fullsim.managed":    "fullsim",
	"fleet.run":          "fleet",
	"fleet.epoch":        "fleet",
}

// q returns the p-quantile of xs, or 0 when xs is empty (the layer did not
// run on this workload).
func q(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, p)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// layerMetrics turns the traced pass's observations into the per-layer
// metrics. Layers a workload does not exercise report 0.
func layerMetrics(ls *layerStats, tr *tracer, fromNs int64, tracedS, untracedS float64) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.Name == name {
				m[name] = metric{v, d.Unit}
				return
			}
		}
		panic("undeclared per-layer metric " + name)
	}
	set("trace.profile_ms", q(ls.profileMs, 0.5))
	set("trace.profiles", float64(ls.profiles))
	set("fullsim.build_warm_ms", q(ls.buildWarmMs, 0.5))
	if ls.fsWallNs > 0 {
		set("fullsim.substrate_share", ratio(float64(ls.fsWallNs-ls.fsDecideNs-ls.fsChainNs), float64(ls.fsWallNs)))
		set("fullsim.minstr_per_s", ls.fsInstr/1e6/(float64(ls.fsWallNs)/1e9))
	} else {
		set("fullsim.substrate_share", 0)
		set("fullsim.minstr_per_s", 0)
	}
	set("engine.step_us", q(ls.stepUs, 0.5))
	set("engine.step_alloc_b", mean(ls.stepAllocB))
	set("engine.chain_us", q(ls.chainUs, 0.5))
	set("engine.decide_rest_us", q(ls.restUs, 0.5))
	set("engine.decisions", float64(ls.decisions))
	set("core.manager_us", q(ls.managerUs, 0.5))
	var all []float64
	for _, p := range table2Policies {
		all = append(all, ls.policyUs[p]...)
		set("core.policy_p50_us."+p, q(ls.policyUs[p], 0.5))
		set("core.policy_p99_us."+p, q(ls.policyUs[p], 0.99))
	}
	set("core.policy_p50_us", q(all, 0.5))
	set("core.policy_p99_us", q(all, 0.99))
	sess := float64(ls.sessDecisions)
	set("solver.nodes_per_decision", ratio(float64(ls.nodes), sess))
	set("solver.cold_us", q(ls.coldUs, 0.5))
	set("solver.warm_us", q(ls.warmUs, 0.5))
	set("solver.memo_hits", float64(ls.memoHits))
	set("solver.delta_certified", float64(ls.deltaCert))
	set("solver.delta_fallbacks", float64(ls.deltaFall))
	set("solver.dirty_cores_mean", ratio(float64(ls.dirty), sess))
	set("solver.fastpath_ratio", ratio(float64(ls.memoHits+ls.deltaCert), sess))
	set("fleet.epoch_skip_ratio", ratio(float64(ls.skipped), float64(ls.epochs)))
	set("fleet.dirty_chips_mean", ratio(float64(ls.dirtyChips), float64(ls.epochs)))
	set("fleet.chip_memo_hits", float64(ls.chipMemo))
	set("obs.overhead_pct", 100*(tracedS-untracedS)/untracedS)

	// Shares of the traced pass's wall time: each layer's self time, and
	// what no layer span covers (the benchmark's own bookkeeping).
	self := tr.selfNs(fromNs)
	wallNs := tracedS * 1e9
	layers := map[string]float64{}
	var covered float64
	for name, ns := range self {
		if l, ok := spanLayers[name]; ok {
			layers[l] += float64(ns)
			covered += float64(ns)
		}
	}
	for _, l := range []string{"engine", "core", "fullsim", "fleet"} {
		set("share."+l+"_pct", share(layers[l], wallNs))
	}
	set("bench.unattributed_pct", share(wallNs-covered, wallNs))
	return m
}

// hostMeta describes the machine and the code a result was measured on.
func hostMeta() string {
	commit, dirty := "unknown", "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			dirty = strconv.FormatBool(len(strings.TrimSpace(string(out))) > 0)
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s dirty=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, dirty)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procStatusKB reads one kB-valued field of /proc/self/status.
func procStatusKB(field string) (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != field {
			continue
		}
		return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
	}
	return 0, fmt.Errorf("%s not in /proc/self/status", field)
}
