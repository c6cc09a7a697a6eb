// Command gpmsim reproduces the paper's tables and figures and runs custom
// global-power-management simulations on the trace-based CMP analysis tool.
//
// Usage:
//
//	gpmsim [flags] <experiment> [experiment...]
//
// Experiments: table4 table5 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10
// fig11 validate xcheck modecount explore scaleout transrate minpower
// selectors thermal sched resilience scaling fleet calib regret run all
//
// Examples:
//
//	gpmsim fig4                                       # curves for the 4-way baseline combo
//	gpmsim -quick fig11                               # reduced horizon & grid
//	gpmsim -policy maxbips -combo 4w-mcf-mcf-art-art -budget 0.75 run
//	gpmsim -csv fig4                                  # machine-readable output
//	gpmsim -quick resilience                          # degradation vs sensor-fault rate
//	gpmsim -fault "stuck=0:0.5:2ms" -guard run        # guarded run with a stuck sensor
//	gpmsim scaling                                    # solver quality/wall-clock at 8..1024 cores
//	gpmsim -solver bb -combo 8w-mixed -budget 0.75 run  # exact BB-backed MaxBIPS run
//	gpmsim -solver hier -clusters 16 scaling          # hierarchical solver, 16-core clusters
//	gpmsim -quick xcheck                              # per-policy cmpsim vs fullsim agreement
//	gpmsim -trace out.jsonl run                       # record the decision trace (JSONL)
//	gpmsim replay out.jsonl                           # re-drive the run from its trace
//	gpmsim -trace pair -quick xcheck                  # also record pair.cmpsim/.fullsim.jsonl
//	gpmsim tracediff pair.cmpsim.jsonl pair.fullsim.jsonl  # first diverging interval/core/field
//	gpmsim -quick fleet                               # 8-chip facility: serving, cap-cut cascade, cap sweep
//	gpmsim -quick calib                               # predictor MAPE/bias/r vs both substrates
//	gpmsim -quick -json regret                        # per-interval regret of alternate policies vs a MaxBIPS recording
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"gpm/internal/cmpsim"
	"gpm/internal/core"
	"gpm/internal/experiment"
	"gpm/internal/fault"
	"gpm/internal/metrics"
	"gpm/internal/obs"
	"gpm/internal/report"
	"gpm/internal/solver"
	"gpm/internal/workload"
)

var (
	flagQuick   = flag.Bool("quick", false, "reduced horizon (15 ms) and budget grid for fast runs")
	flagCSV     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flagPolicy  = flag.String("policy", "maxbips", "policy for 'run': maxbips|greedy|priority|pullhipushlo|chipwide|oracle|stable|fairness|hierarchical|maxbips-bb|maxbips-hier")
	flagCombo   = flag.String("combo", "4w-ammp-mcf-crafty-art", "workload combo ID for 'run' (see Table 2 IDs)")
	flagBudget  = flag.Float64("budget", 0.80, "budget fraction of max chip power for 'run'")
	flagHorizon = flag.Duration("horizon", 0, "override simulation horizon (e.g. 20ms)")
	flagFault   = flag.String("fault", "", "fault scenario for 'run'/'resilience', e.g. \"seed=7,noise=0.05,stuck=1:0.5:2ms,death=3:8ms\" (see internal/fault.ParseScenario)")
	flagGuard   = flag.Bool("guard", false, "guard 'run' with the ResilientManager (sanitization, emergency throttle, core parking)")
	flagSolver  = flag.String("solver", "", "allocation solver for 'run'/'scaling': exhaustive|bb|hier|greedy (for 'run', overrides -policy with the policy that runs it: maxbips, maxbips-bb, maxbips-hier or greedy)")
	flagCluster = flag.Int("clusters", 0, "hierarchical solver cluster size (0 = default 8)")
	flagTrace   = flag.String("trace", "", "record the decision trace of 'run' to this JSONL file (for 'xcheck': record a <name>.cmpsim.jsonl/<name>.fullsim.jsonl pair)")
	flagWorkers = flag.Int("workers", 0, "worker-pool size for parallel sweeps and fullsim stepping (0 = GOMAXPROCS, 1 = serial; results are identical for every value)")
	flagPprof   = flag.String("pprof", "", "write a CPU profile of the whole invocation to this file")

	flagSeed      = flag.Int64("seed", 1, "base PRNG seed for 'chaos' fault schedules")
	flagRuns      = flag.Int("runs", 2, "randomized fault schedules per policy×budget cell for 'chaos'")
	flagIntervals = flag.Int("intervals", 0, "explore intervals per 'chaos' run (0 = default 25)")
	flagDeadline  = flag.Duration("deadline", 0, "per-decision wall-clock deadline for 'chaos' (0 = no watchdog, so reruns must be bit-identical; >0 arms the watchdog and injected solver stalls, disabling the bit-identical-rerun monitor)")
	flagFullsim   = flag.Bool("fullsim", false, "also soak the cycle-level substrate in 'chaos'")
)

func main() {
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: gpmsim [flags] <experiment>... | replay <trace.jsonl> | tracediff <a.jsonl> <b.jsonl>")
		fmt.Fprintln(os.Stderr, "experiments: table4 table5 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 validate xcheck modecount explore scaleout transrate minpower selectors thermal sched resilience chaos scaling fleet calib regret run all")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *flagPprof != "" {
		f, err := os.Create(*flagPprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpmsim -pprof: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "gpmsim -pprof: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	env := buildEnv()
	args := flag.Args()
	ok := true
	for i := 0; i < len(args); i++ {
		cmd := args[i]
		var err error
		switch cmd {
		// Trace commands consume file operands from the argument list.
		case "replay":
			if i+1 >= len(args) {
				err = fmt.Errorf("usage: gpmsim replay <trace.jsonl>")
			} else {
				err = replayCmd(env, args[i+1])
				i++
			}
		case "tracediff":
			if i+2 >= len(args) {
				err = fmt.Errorf("usage: gpmsim tracediff <a.jsonl> <b.jsonl>")
			} else {
				err = tracediffCmd(args[i+1], args[i+2])
				i += 2
			}
		default:
			err = dispatch(env, cmd)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpmsim %s: %v\n", cmd, err)
			ok = false
			break
		}
	}
	// Flush the profile (deferred) before exiting on error.
	if !ok {
		if *flagPprof != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
}

func buildEnv() *experiment.Env {
	env := experiment.NewEnv(4)
	if *flagQuick {
		env = env.ShortHorizon(15 * time.Millisecond)
		env.Budgets = []float64{0.60, 0.70, 0.80, 0.90, 1.00}
	}
	if *flagHorizon > 0 {
		env = env.ShortHorizon(*flagHorizon)
	}
	env.Workers = *flagWorkers
	return env
}

func emit(t *report.Table) {
	if *flagCSV {
		fmt.Print(t.CSV())
		return
	}
	fmt.Println(t.String())
}

func dispatch(env *experiment.Env, cmd string) error {
	switch cmd {
	case "all":
		for _, c := range []string{"table4", "table5", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "validate", "modecount", "explore", "scaleout", "transrate", "minpower", "selectors", "thermal", "sched", "resilience", "scaling"} {
			if err := dispatch(env, c); err != nil {
				return err
			}
		}
		return nil
	case "table4":
		return table4(env)
	case "table5":
		return table5(env)
	case "fig2":
		return fig2(env)
	case "fig3":
		return fig3(env)
	case "fig4":
		return fig4(env)
	case "fig5":
		return fig5(env)
	case "fig6":
		return fig6(env)
	case "fig7":
		return fig7(env)
	case "fig8":
		return figScaling(env, 2)
	case "fig9":
		return figScaling(env, 4)
	case "fig10":
		return figScaling(env, 8)
	case "fig11":
		return fig11(env)
	case "validate":
		return validate(env)
	case "xcheck":
		return xcheck(env)
	case "modecount":
		return modecount(env)
	case "explore":
		return explore(env)
	case "scaleout":
		return scaleout(env)
	case "transrate":
		return transrate(env)
	case "minpower":
		return minpower(env)
	case "selectors":
		return selectors(env)
	case "thermal":
		return thermalCmd(env)
	case "sched":
		return sched(env)
	case "resilience":
		return resilience(env)
	case "chaos":
		return chaos(env)
	case "scaling":
		return solverScaling(env)
	case "fleet":
		return fleetCmd(env)
	case "calib":
		return calibCmd(env)
	case "regret":
		return regretCmd(env)
	case "run":
		return custom(env)
	default:
		return fmt.Errorf("unknown experiment %q", cmd)
	}
}

func table4(env *experiment.Env) error {
	t := report.NewTable("Table 4: analytic DVFS estimates", "mode", "V scale", "f scale", "power savings", "perf degradation", "ratio")
	for _, r := range experiment.Table4(env.Plan) {
		t.AddRow(r.Mode, fmt.Sprintf("%.2f", r.VScale), fmt.Sprintf("%.2f", r.FScale),
			report.Pct(r.PowerSavings), report.Pct(r.PerfDegradation), fmt.Sprintf("%.2f", r.SavingsPerDegrade))
	}
	emit(t)
	return nil
}

func table5(env *experiment.Env) error {
	t := report.NewTable("Table 5: DVFS transition overheads", "transition", "ΔV [mV]", "t [µs]")
	for _, r := range experiment.Table5(env.Plan) {
		t.AddRow(r.From+" -> "+r.To, fmt.Sprintf("%.0f", r.DeltaV*1000), fmt.Sprintf("%.1f", r.Overhead.Seconds()*1e6))
	}
	emit(t)
	return nil
}

func fig2(env *experiment.Env) error {
	rows, err := env.Figure2()
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 2: measured ∆PowerSavings : ∆PerfDegradation", "benchmark", "mode", "power savings", "perf degradation")
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Mode, report.Pct(r.PowerSavings), report.Pct(r.PerfDegradation))
	}
	emit(t)
	return nil
}

func fig3(env *experiment.Env) error {
	series, err := env.Figure3()
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 3: chip power at 83% budget", "combo", "policy", "avg power", "degradation")
	for _, s := range series {
		t.AddRow(s.ComboID, s.Policy, report.Pct(s.AvgPowerFrac), report.Pct(s.Degradation))
	}
	emit(t)
	if !*flagCSV {
		for _, s := range series {
			ts := report.NewTimeSeries(fmt.Sprintf("%s / %s (budget 83%%)", s.ComboID, s.Policy), "time →", 100)
			ts.Add("chip power", s.ChipPowerFrac)
			fmt.Println(ts.String())
		}
	}
	return nil
}

func curveTable(title string, curves []*experiment.PolicyCurve) *report.Table {
	t := report.NewTable(title, "policy", "budget", "degradation", "weighted slowdown", "power/budget", "power saving")
	for _, c := range curves {
		for i := range c.Budgets {
			t.AddRow(c.Policy, report.Pct(c.Budgets[i]), report.Pct(c.Degradation[i]),
				report.Pct(c.WeightedSlowdown[i]), report.Pct(c.BudgetFit[i]), report.Pct(c.PowerSaving[i]))
		}
	}
	return t
}

func fig4(env *experiment.Env) error {
	f4, err := env.Figure4()
	if err != nil {
		return err
	}
	emit(curveTable("Figure 4: policy/budget/weighted-slowdown curves ("+f4.ComboID+")", f4.Curves))
	return nil
}

func fig5(env *experiment.Env) error {
	pts, err := env.Figure5()
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 5: power saving vs perf degradation (target 3:1)", "policy", "budget", "power saving", "perf degradation", "ratio")
	for _, p := range pts {
		ratio := "-"
		if p.PerfDegradation > 1e-6 {
			ratio = fmt.Sprintf("%.1f", p.PowerSaving/p.PerfDegradation)
		}
		t.AddRow(p.Policy, report.Pct(p.BudgetFrac), report.Pct(p.PowerSaving), report.Pct(p.PerfDegradation), ratio)
	}
	emit(t)
	return nil
}

func fig6(env *experiment.Env) error {
	drop := env.Cfg.Sim.Horizon / 2
	f6, err := env.Figure6(drop)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 6: MaxBIPS with budget drop 90% -> 70% at "+fmt.Sprintf("%.0fµs", f6.DropAtUs),
		"region", "avg BIPS (% of all-Turbo)")
	t.AddRow("before drop", report.Pct(f6.AvgBIPSBefore))
	t.AddRow("after drop", report.Pct(f6.AvgBIPSAfter))
	emit(t)
	if !*flagCSV {
		ts := report.NewTimeSeries("per-application power (fraction of max chip power)", "time →", 100)
		for c, name := range f6.Benchmarks {
			ts.Add(name, f6.CorePowerFrac[c])
		}
		ts.Add("budget", f6.BudgetFrac)
		fmt.Println(ts.String())
	}
	return nil
}

func fig7(env *experiment.Env) error {
	f7, err := env.Figure7()
	if err != nil {
		return err
	}
	emit(curveTable("Figure 7: MaxBIPS vs oracle, static, chip-wide ("+f7.ComboID+")", f7.Curves))
	return nil
}

func figScaling(env *experiment.Env, n int) error {
	sc, err := env.FigureScaling(n)
	if err != nil {
		return err
	}
	for _, combo := range sc.Combos {
		emit(curveTable(fmt.Sprintf("Figure %d (%d-way): %s", map[int]int{2: 8, 4: 9, 8: 10}[n], n, combo.ComboID), combo.Curves))
	}
	return nil
}

func fig11(env *experiment.Env) error {
	rows, err := env.Figure11(nil)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 11: mean degradation over oracle vs CMP scale", "cores", "MaxBIPS", "Static", "ChipWideDVFS")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Cores), report.Pct(r.MaxBIPS), report.Pct(r.Static), report.Pct(r.ChipWide))
	}
	emit(t)
	return nil
}

func validate(env *experiment.Env) error {
	v, err := env.Validation(workload.FourWay[0], 2_000_000, 20_000)
	if err != nil {
		return err
	}
	t := report.NewTable("Validation: trace characterization vs full-CMP simulation ("+v.ComboID+")",
		"benchmark", "ST power", "CMP power", "Δpower", "ST IPC", "CMP IPC", "ΔIPC")
	for _, r := range v.Rows {
		t.AddRow(r.Benchmark, report.W(r.STPowerW), report.W(r.CMPPowerW), report.Pct(r.PowerDelta),
			fmt.Sprintf("%.3f", r.STIPC), fmt.Sprintf("%.3f", r.CMPIPC), report.Pct(r.IPCDelta))
	}
	emit(t)
	fmt.Printf("mean power drop %.1f%% (CMP consistently lower), mean IPC drop %.1f%%, shared-L2 wait %d cycles\n\n",
		v.MeanPowerDrop*100, v.MeanIPCDrop*100, v.L2WaitCycles)
	return nil
}

// xcheck runs the cross-substrate agreement experiment: the same policies,
// budget and engine control loop on the trace players and the cycle-level
// chip, reporting per-policy throughput/power agreement.
func xcheck(env *experiment.Env) error {
	combo, err := workload.FindCombo(*flagCombo)
	if err != nil {
		return err
	}
	intervals := 24
	if *flagQuick {
		intervals = 10
	}
	res, err := env.CrossSubstrate(combo, *flagBudget, intervals, nil)
	if err != nil {
		return err
	}
	if *flagJSON {
		return emitJSON(newXcheckSummary(res))
	}
	t := report.NewTable(fmt.Sprintf("Cross-substrate agreement: %s at %.0f%% budget (%.1f W, %d intervals)",
		res.ComboID, res.BudgetFrac*100, res.BudgetW, res.Intervals),
		"policy", "trace deg", "full deg", "gap", "trace power", "full power", "trace fit", "full fit")
	for _, r := range res.Rows {
		t.AddRow(r.Policy, report.Pct(r.TraceDeg), report.Pct(r.FullDeg), report.Pct(r.DegGap),
			report.W(r.TraceAvgPowerW), report.W(r.FullAvgPowerW),
			report.Pct(r.TraceFit), report.Pct(r.FullFit))
	}
	emit(t)
	if res.RankAgree {
		fmt.Println("policy ranking: substrates agree")
	} else {
		fmt.Println("policy ranking: substrates DISAGREE")
	}
	fmt.Println()
	if *flagTrace != "" {
		// Record the first default policy on both substrates and write the
		// trace pair for `gpmsim tracediff`.
		pol := experiment.CrossSubstratePolicies()[0]
		ct, ft, err := env.CrossSubstrateTraced(combo, pol, *flagBudget, intervals)
		if err != nil {
			return err
		}
		base := strings.TrimSuffix(*flagTrace, ".jsonl")
		for _, pair := range []struct {
			path string
			tr   *obs.Trace
		}{{base + ".cmpsim.jsonl", ct}, {base + ".fullsim.jsonl", ft}} {
			f, err := os.Create(pair.path)
			if err != nil {
				return err
			}
			err = obs.WriteTrace(f, pair.tr)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "trace: %d decisions -> %s\n", len(pair.tr.Records), pair.path)
		}
		fmt.Fprintf(os.Stderr, "compare with: gpmsim tracediff %s.cmpsim.jsonl %s.fullsim.jsonl\n", base, base)
	}
	return nil
}

func modecount(env *experiment.Env) error {
	rows, err := env.AblationModeCount([]int{3, 5, 7}, 0.80)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A1: DVFS level count at 80% budget", "levels", "MaxBIPS degradation", "chip-wide degradation")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Levels), report.Pct(r.MaxBIPSDegradation), report.Pct(r.ChipWideDegradation))
	}
	emit(t)
	return nil
}

func explore(env *experiment.Env) error {
	rows, err := env.AblationExploreInterval([]time.Duration{100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond}, 0.80)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A2: explore-interval sensitivity at 80% budget", "explore", "degradation", "stall share", "overshoot")
	for _, r := range rows {
		t.AddRow(r.Explore.String(), report.Pct(r.Degradation), report.Pct(r.StallShare), report.Pct(r.Overshoot))
	}
	emit(t)
	return nil
}

func scaleout(env *experiment.Env) error {
	rows, err := env.AblationScaleOut([]int{2, 4, 8, 16, 32, 64}, 0.80)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A3: exhaustive vs greedy MaxBIPS at 80% budget", "cores", "exhaustive", "greedy")
	for _, r := range rows {
		ex := "-"
		if r.ExhaustiveRan {
			ex = report.Pct(r.ExhaustiveDegradation)
		}
		t.AddRow(fmt.Sprintf("%d", r.Cores), ex, report.Pct(r.GreedyDegradation))
	}
	emit(t)
	return nil
}

func transrate(env *experiment.Env) error {
	rows, err := env.AblationTransitionRate([]float64{0.005, 0.010, 0.020}, 0.80)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A4: DVFS ramp-rate sensitivity at 80% budget", "rate [mV/µs]", "Turbo->Eff2", "degradation", "stall share")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.0f", r.RateVPerUs*1000), r.TurboToEff2.String(), report.Pct(r.Degradation), report.Pct(r.StallShare))
	}
	emit(t)
	return nil
}

func minpower(env *experiment.Env) error {
	rows, err := env.AblationMinPower([]float64{0.99, 0.97, 0.95, 0.90})
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A5: MinPower dual problem", "throughput floor", "degradation", "power saving")
	for _, r := range rows {
		t.AddRow(report.Pct(r.TargetFrac), report.Pct(r.Degradation), report.Pct(r.PowerSaving))
	}
	emit(t)
	return nil
}

// solverOpts collects the -clusters knob for solver-backed runs.
func solverOpts() solver.Options {
	return solver.Options{ClusterSize: *flagCluster}
}

func custom(env *experiment.Env) error {
	// -solver X names the registry policy that runs solver X: the
	// exhaustive and greedy kernels are maxbips and greedy themselves.
	name := strings.ToLower(*flagPolicy)
	switch s := strings.ToLower(*flagSolver); s {
	case "":
	case "exhaustive":
		name = "maxbips"
	case "greedy":
		name = "greedy"
	case "bb", "hier":
		name = "maxbips-" + s
	default:
		return fmt.Errorf("unknown solver %q (want %s)", s, strings.Join(solver.Names(), "|"))
	}
	pol, err := core.SolverRegistry(name, solverOpts())
	if err != nil {
		return err
	}
	combo, err := workload.FindCombo(*flagCombo)
	if err != nil {
		return err
	}
	sc, err := fault.ParseScenario(*flagFault)
	if err != nil {
		return err
	}
	var scp *fault.Scenario
	if sc.Enabled() {
		scp = &sc
	}
	var guard *core.GuardConfig
	if *flagGuard {
		g := core.DefaultGuard()
		guard = &g
	}
	var tw *obs.Writer
	if *flagTrace != "" {
		f, err := os.Create(*flagTrace)
		if err != nil {
			return err
		}
		defer f.Close()
		m := env.Manifest("cmpsim", combo, pol.Name(), fmt.Sprintf("frac=%.4f", *flagBudget), *flagFault, guard != nil)
		tw, err = obs.NewWriter(f, m)
		if err != nil {
			return err
		}
		env.Observer = tw
		defer func() { env.Observer = nil }()
	}
	res, base, err := env.RunPolicyResilient(combo, pol, *flagBudget, scp, guard)
	if err != nil {
		return err
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d decisions -> %s\n", res.Obs.TraceRecords, *flagTrace)
	}
	if *flagJSON {
		return emitJSON(runSummary{
			Kind:          "run",
			Policy:        pol.Name(),
			Combo:         combo.ID,
			BudgetFrac:    *flagBudget,
			BudgetW:       *flagBudget * base.EnvelopePowerW(),
			Degradation:   metrics.Degradation(res.TotalInstr, base.TotalInstr),
			AvgChipPowerW: res.AvgChipPowerW(),
			TotalInstr:    res.TotalInstr,
			Obs:           newObsSummary(res.Obs),
		})
	}
	sp, err := metrics.PerThreadSpeedups(res.PerCoreInstr, base.PerCoreInstr)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Run: %s on %s at %.0f%% budget", pol.Name(), combo.ID, *flagBudget*100),
		"metric", "value")
	t.AddRow("degradation", report.Pct(metrics.Degradation(res.TotalInstr, base.TotalInstr)))
	t.AddRow("weighted slowdown", report.Pct(metrics.WeightedSlowdown(sp)))
	t.AddRow("avg chip power", report.W(res.AvgChipPowerW()))
	t.AddRow("budget", report.W(*flagBudget*base.EnvelopePowerW()))
	t.AddRow("transition stall", res.TransitionStall.String())
	t.AddRow("overshoot intervals", fmt.Sprintf("%d/%d", res.OvershootIntervals, len(res.ChipPowerW)))
	if scp != nil || guard != nil {
		t.AddRow("worst sustained overshoot", fmt.Sprintf("%.3g W·s", res.WorstOvershootWs))
		t.AddRow("overshoot energy", fmt.Sprintf("%.3g W·s", res.OvershootEnergyWs))
	}
	if guard != nil {
		t.AddRow("emergency entries", fmt.Sprintf("%d", res.EmergencyEntries))
		t.AddRow("emergency intervals", fmt.Sprintf("%d", res.EmergencyIntervals))
		t.AddRow("recovery latency", res.RecoveryLatency.String())
		t.AddRow("sanitized samples", fmt.Sprintf("%d", res.SanitizedSamples))
		t.AddRow("dead cores", fmt.Sprintf("%v", res.DeadCores))
	}
	emit(t)
	emit(obs.CountersTable(res.Obs))
	if !*flagCSV {
		ts := report.NewTimeSeries("chip power [W]", "time →", 100)
		ts.Add("power", res.ChipPowerW)
		ts.Add("budget", res.BudgetW)
		fmt.Println(ts.String())
	}
	return nil
}

// replayCmd re-drives a recorded run from its trace: the replay Decider feeds
// the engine the recorded mode vectors and budgets on a fresh substrate, and
// the Result fingerprint is checked against the one stamped in the trace
// footer. Runs recorded with a thermal governor cannot be verified this way
// (the governor's parameters are not in the trace).
func replayCmd(env *experiment.Env, path string) error {
	tr, err := obs.ReadTraceFile(path)
	if err != nil {
		return err
	}
	m := tr.Manifest
	combo, err := workload.FindCombo(m.ComboID)
	if err != nil {
		return fmt.Errorf("trace combo: %w", err)
	}
	// Fault scenario and horizon default from the manifest inside cmpsim.Run.
	res, err := cmpsim.Run(env.Lib, combo, cmpsim.Options{Replay: tr})
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Replay: %s on %s (%s, %d recorded decisions)",
		tr.PolicyName(), m.ComboID, m.Substrate, len(tr.Records)),
		"metric", "value")
	t.AddRow("total instructions", fmt.Sprintf("%.4g", res.TotalInstr))
	t.AddRow("avg chip power", report.W(res.AvgChipPowerW()))
	t.AddRow("energy", fmt.Sprintf("%.4g J", res.EnergyJ))
	t.AddRow("transition stall", res.TransitionStall.String())
	got := fmt.Sprintf("%016x", obs.ResultFingerprint(res))
	t.AddRow("replayed fingerprint", got)
	if tr.Footer != nil {
		t.AddRow("recorded fingerprint", tr.Footer.Fingerprint)
	}
	emit(t)
	switch {
	case tr.Footer == nil:
		fmt.Println("replay: trace has no footer; nothing to verify against")
	case got == tr.Footer.Fingerprint:
		fmt.Println("replay: bit-identical to the recorded run")
	default:
		fmt.Println("replay: DIVERGED from the recorded run (thermal-governed traces cannot be re-verified)")
	}
	fmt.Println()
	return nil
}

// tracediffCmd structurally compares two decision traces and names the first
// diverging interval, core and field — e.g. a cmpsim-vs-fullsim pair recorded
// by `gpmsim -trace <name> xcheck`.
func tracediffCmd(pathA, pathB string) error {
	a, err := obs.ReadTraceFile(pathA)
	if err != nil {
		return err
	}
	b, err := obs.ReadTraceFile(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A: %s (%s, %d records)\nB: %s (%s, %d records)\n",
		pathA, a.Manifest.Substrate, len(a.Records), pathB, b.Manifest.Substrate, len(b.Records))
	if d := obs.Diff(a, b); d != nil {
		fmt.Println(d)
		return nil
	}
	fmt.Println("traces are structurally identical")
	return nil
}

func resilience(env *experiment.Env) error {
	combo, err := workload.FindCombo(*flagCombo)
	if err != nil {
		return err
	}
	rates := []float64{0, 0.05, 0.10, 0.25}
	if *flagQuick {
		rates = []float64{0, 0.10, 0.25}
	}
	opts := experiment.ResilienceOptions{BudgetFrac: *flagBudget}
	if sc, err := fault.ParseScenario(*flagFault); err != nil {
		return err
	} else if sc.Enabled() {
		// An explicit -fault scenario replaces the rate-scaled profile; the
		// rate column then only varies the seed.
		opts.Scenario = func(rate float64, seed int64) fault.Scenario {
			out := sc
			out.Seed = seed
			return out
		}
	}
	pts, err := env.ResilienceSweep(combo, experiment.ResiliencePolicies(), rates, opts)
	if err != nil {
		return err
	}
	// A fault scenario must degrade metrics, never poison them: any
	// non-finite point is an invariant violation and fails the invocation.
	for _, p := range pts {
		for _, x := range []float64{p.Degradation, p.AvgPowerW, p.BudgetW, p.OvershootShare, p.WorstOvershootWs} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("invariant violation: non-finite metric in point %s rate=%.2f guarded=%v: %+v",
					p.Policy, p.FaultRate, p.Guarded, p)
			}
		}
	}
	t := report.NewTable(fmt.Sprintf("Resilience: degradation vs fault rate (%s, %.0f%% budget)", combo.ID, *flagBudget*100),
		"policy", "fault rate", "guarded", "degradation", "avg/budget", "overshoot", "worst W·s", "emergencies", "sanitized", "dead")
	for _, p := range pts {
		g := "no"
		if p.Guarded {
			g = "yes"
		}
		t.AddRow(p.Policy, report.Pct(p.FaultRate), g, report.Pct(p.Degradation),
			fmt.Sprintf("%.2f", p.AvgPowerW/p.BudgetW), report.Pct(p.OvershootShare),
			fmt.Sprintf("%.3g", p.WorstOvershootWs), fmt.Sprintf("%d", p.EmergencyEntries),
			fmt.Sprintf("%d", p.SanitizedSamples), fmt.Sprintf("%d", p.DeadCores))
	}
	emit(t)
	return nil
}

// histLine renders a fixed-bucket histogram as one summary line.
func histLine(h *experiment.Histogram, unit string) string {
	if h.N == 0 {
		return "none"
	}
	s := fmt.Sprintf("n=%d mean=%.2f max=%.2f %s |", h.N, h.Mean(), h.Max, unit)
	for i, c := range h.Counts {
		if i < len(h.Bounds) {
			s += fmt.Sprintf(" ≤%g:%d", h.Bounds[i], c)
		} else {
			s += fmt.Sprintf(" >%g:%d", h.Bounds[len(h.Bounds)-1], c)
		}
	}
	return s
}

// chaos runs the seeded randomized fault soak against the decision
// supervisor's invariant monitors and exits non-zero on any violation, so CI
// can gate on it directly.
func chaos(env *experiment.Env) error {
	combo, err := workload.FindCombo(*flagCombo)
	if err != nil {
		return err
	}
	rep, err := env.ChaosSoak(combo, experiment.ChaosOptions{
		Seed:      *flagSeed,
		Runs:      *flagRuns,
		Intervals: *flagIntervals,
		Deadline:  *flagDeadline,
		Fullsim:   *flagFullsim,
	})
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Chaos soak: %s, seed %d (%d runs, %d decisions)",
		combo.ID, *flagSeed, rep.Runs, rep.Decisions),
		"substrate", "policy", "budget", "decisions", "rung0", "rung1", "rung2", "rung3", "rejects", "repairs", "timeouts", "wedged", "violations")
	for _, r := range rep.Rows {
		t.AddRow(r.Substrate, r.Policy, report.Pct(r.BudgetFrac), fmt.Sprintf("%d", r.Decisions),
			fmt.Sprintf("%d", r.RungHits[0]), fmt.Sprintf("%d", r.RungHits[1]),
			fmt.Sprintf("%d", r.RungHits[2]), fmt.Sprintf("%d", r.RungHits[3]),
			fmt.Sprintf("%d", r.Rejects), fmt.Sprintf("%d", r.Repairs),
			fmt.Sprintf("%d", r.Timeouts), fmt.Sprintf("%d", r.Wedged),
			fmt.Sprintf("%d", r.Violations))
	}
	emit(t)
	fmt.Printf("MTTR [explore intervals]:     %s\n", histLine(rep.MTTR, "intervals"))
	fmt.Printf("overshoot magnitude:          %s\n", histLine(rep.OvershootW, "W"))
	fmt.Printf("overshoot duration:           %s\n", histLine(rep.OvershootLen, "delta intervals"))
	fmt.Println()
	if err := rep.Err(); err != nil {
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "violation: %s\n", v)
		}
		return err
	}
	fmt.Println("chaos: all invariants held (conformance, finiteness, recovery, determinism)")
	fmt.Println()
	return nil
}

// solverScaling runs the A9 sweep: solution quality and decision wall-clock
// for every allocation solver across chip widths the exhaustive MaxBIPS
// kernel cannot reach.
func solverScaling(env *experiment.Env) error {
	widths := []int{8, 16, 64, 256, 1024}
	if *flagQuick {
		widths = []int{8, 16, 64}
	}
	opts := experiment.SolverScalingOptions{ClusterSize: *flagCluster}
	if *flagSolver != "" {
		opts.Solvers = strings.Split(strings.ToLower(*flagSolver), ",")
	}
	rows, err := env.SolverScaling(widths, *flagBudget, opts)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Ablation A9: mode-allocation solvers at %.0f%% budget", *flagBudget*100),
		"cores", "solver", "quality", "vs", "exact", "nodes", "wall clock")
	for _, r := range rows {
		exact := "no"
		if r.Exact {
			exact = "yes"
		}
		t.AddRow(fmt.Sprintf("%d", r.Cores), r.Solver, fmt.Sprintf("%.4f", r.Quality), r.Reference,
			exact, fmt.Sprintf("%d", r.Nodes), r.Wall.Round(time.Microsecond).String())
	}
	emit(t)
	return nil
}

func selectors(env *experiment.Env) error {
	rows, err := env.AblationSelectors(8, 0.80)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A6: mode selectors at 8 cores, 80% budget", "policy", "degradation", "power/budget", "stall share", "overshoot")
	for _, r := range rows {
		t.AddRow(r.Policy, report.Pct(r.Degradation), report.Pct(r.BudgetFit), report.Pct(r.StallShare), report.Pct(r.Overshoot))
	}
	emit(t)
	return nil
}

func thermalCmd(env *experiment.Env) error {
	res, err := env.Thermal([]float64{85, 82, 79})
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Ablation A7: thermally governed budgets (%s; ungoverned peak %.1f°C)", res.ComboID, res.UngovernedMaxTempC),
		"limit [°C]", "max temp [°C]", "degradation", "avg power")
	for _, r := range res.Rows {
		t.AddRow(fmt.Sprintf("%.0f", r.LimitC), fmt.Sprintf("%.1f", r.MaxTempC), report.Pct(r.Degradation), report.W(r.AvgPowerW))
	}
	emit(t)
	return nil
}

func sched(env *experiment.Env) error {
	rows, err := env.SchedCompare([]float64{0.70, 0.80, 0.90}, experiment.SchedOptions{})
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A8: OS-rescheduled static vs oracle static vs MaxBIPS (§5.7)",
		"budget", "oracle static", "OS rescheduled", "migrations", "MaxBIPS")
	for _, r := range rows {
		t.AddRow(report.Pct(r.BudgetFrac), report.Pct(r.StaticDeg), report.Pct(r.ReschedDeg),
			fmt.Sprintf("%d", r.Migrations), report.Pct(r.MaxBIPSDeg))
	}
	emit(t)
	return nil
}
