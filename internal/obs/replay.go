package obs

import (
	"fmt"
	"time"

	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/modes"
)

// ReplayDecider re-drives a substrate from a recorded trace: instead of
// sensing and predicting, every StepDecision returns the next recorded mode
// vector. Driven with the same substrate, injector, thermal state and
// cadence as the recording run, the engine reproduces the original Result
// bit-identically — the recorded vectors and budgets are the only inputs the
// simulated physics ever consumed (observation noise only ever influenced
// the decisions, which are now replayed verbatim). Guard accounting is
// restored from the trace footer so the folded Result fields match too.
type ReplayDecider struct {
	trace   *Trace
	i       int
	current modes.Vector
	explore time.Duration
}

// Decider implements engine.Recording with a *ReplayDecider over t. explore
// is the run's explore interval, used to convert the footer's recovery
// latency back to the guard's interval count.
func (t *Trace) Decider(explore time.Duration) (engine.Decider, error) {
	if len(t.Records) == 0 {
		return nil, fmt.Errorf("obs: replay: trace has no decision records")
	}
	n := len(t.Records[0].Vector)
	if n == 0 {
		return nil, fmt.Errorf("obs: replay: trace records have empty mode vectors")
	}
	return &ReplayDecider{
		trace:   t,
		current: modes.Uniform(n, modes.Turbo),
		explore: explore,
	}, nil
}

// StepDecision implements engine.Decider: it returns the recorded vector for
// the next interval. A run that outlives its trace (cadence mismatch) holds
// the last recorded vector rather than failing mid-loop; Replayed reports
// how many records were consumed so callers can detect the mismatch.
func (d *ReplayDecider) StepDecision(core.Decision) modes.Vector {
	rec := &d.trace.Records[len(d.trace.Records)-1]
	if d.i < len(d.trace.Records) {
		rec = &d.trace.Records[d.i]
		d.i++
	}
	v := make(modes.Vector, len(rec.Vector))
	for c, m := range rec.Vector {
		v[c] = modes.Mode(m)
	}
	d.current = v
	return v
}

// Current implements engine.Decider.
func (d *ReplayDecider) Current() modes.Vector { return d.current.Clone() }

// Replayed reports how many trace records have been consumed.
func (d *ReplayDecider) Replayed() int { return d.i }

// GuardStats implements engine.Decider by restoring the recording run's
// guard accounting from the trace footer, so the engine folds the same
// EmergencyEntries/RecoveryLatency/DeadCores/... into the replayed Result.
// The footer stores the already-summed sanitized+clamped count; it is
// reported wholly as SanitizedSamples (the engine only consumes the sum).
func (d *ReplayDecider) GuardStats() (core.ResilientStats, bool) {
	f := d.trace.Footer
	if f == nil || !f.Guarded {
		return core.ResilientStats{}, false
	}
	st := core.ResilientStats{
		SanitizedSamples:   f.SanitizedSamples,
		RescaledIntervals:  f.RescaledIntervals,
		EmergencyEntries:   f.EmergencyEntries,
		EmergencyIntervals: f.EmergencyIntervals,
		DeadCores:          append([]int(nil), f.DeadCores...),
	}
	if d.explore > 0 {
		st.LongestEmergency = int(time.Duration(f.RecoveryLatencyNs) / d.explore)
	}
	return st, true
}

// AsRecording returns t as the engine.Recording that engine.Wire replays, or
// a nil interface when t is nil: a nil *Trace stored in the interface would
// compare non-nil and send a policy run down the replay path.
func AsRecording(t *Trace) engine.Recording {
	if t == nil {
		return nil
	}
	return t
}

// BudgetStage implements engine.Recording with a ReplayBudget.
func (t *Trace) BudgetStage() engine.Stage { return &ReplayBudget{trace: t} }

// FaultSpec implements engine.Recording from the manifest.
func (t *Trace) FaultSpec() string {
	if t.Manifest == nil {
		return ""
	}
	return t.Manifest.FaultSpec
}

// ReplayBudget is the replay counterpart of the whole budget middleware
// chain: it sets each decision's budget to the recorded final value, so
// fault spikes and thermal clamps replay exactly without re-running the
// stages that produced them.
type ReplayBudget struct {
	trace *Trace
	i     int
}

// Name implements engine.Stage.
func (b *ReplayBudget) Name() string { return "replay-budget" }

// Apply implements engine.Stage.
func (b *ReplayBudget) Apply(st *engine.Step) error {
	if len(b.trace.Records) == 0 {
		return fmt.Errorf("obs: replay: trace has no decision records")
	}
	rec := &b.trace.Records[len(b.trace.Records)-1]
	if b.i < len(b.trace.Records) {
		rec = &b.trace.Records[b.i]
		b.i++
		if want := time.Duration(rec.NowNs); want != st.Now {
			return fmt.Errorf("obs: replay: cadence mismatch at interval %d: trace recorded t=%v, engine at t=%v", rec.Interval, want, st.Now)
		}
	}
	st.BudgetW = rec.BudgetW
	return nil
}
