package cmpsim

import (
	"testing"

	"gpm/internal/calib"
	"gpm/internal/core"
	"gpm/internal/obs"
)

// TestCounterfactualSelfIdentity pins the counterfactual replay contract on
// the trace-based substrate: re-driving a recorded trace's telemetry through
// the *same* policy/guard configuration must reproduce the recorded decisions
// exactly — zero regret at every interval, for every golden case, including
// the faulted and guarded ones. Any nonzero regret means calib.Replay's
// counterfactual lane is not being fed what the recording manager was fed,
// and every cross-policy regret number it reports is suspect.
func TestCounterfactualSelfIdentity(t *testing.T) {
	lib := testLib(t)
	memBound, err := MemBoundedness(lib, fourWay())
	if err != nil {
		t.Fatal(err)
	}
	pred := core.Predictor{Plan: lib.Plan(), ExploreSeconds: lib.Config().Sim.Explore.Seconds()}
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			opt := gc.opt()
			col := obs.NewCollector(nil)
			opt.Observer = col
			if _, err := Run(lib, fourWay(), opt); err != nil {
				t.Fatal(err)
			}
			rr, err := calib.Replay(col.Trace(), calib.ReplayOptions{
				Plan:      lib.Plan(),
				Predictor: pred,
				Policy:    opt.Policy,
				Guard:     opt.Guard,
				MemBound:  memBound,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rr.Intervals) != len(col.Trace().Records)-1 {
				t.Fatalf("replayed %d intervals, trace has %d records (want records-1)", len(rr.Intervals), len(col.Trace().Records))
			}
			for _, ir := range rr.Intervals {
				if !ir.Matched {
					t.Fatalf("interval %d: self-replay vector diverged from the recorded one", ir.Interval)
				}
				if ir.VsRecorded != 0 {
					t.Fatalf("interval %d: self-replay regret %v, want exactly 0", ir.Interval, ir.VsRecorded)
				}
			}
			if rr.CumVsRecorded != 0 || rr.Matches != len(rr.Intervals) {
				t.Fatalf("cumulative self-regret %v over %d/%d matches, want 0 over all",
					rr.CumVsRecorded, rr.Matches, len(rr.Intervals))
			}
		})
	}
}
