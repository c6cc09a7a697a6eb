package obs

import (
	"math"

	"gpm/internal/engine"
)

// FNV-1a 64-bit parameters (the same stream hash/fnv's New64a computes).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hasher is an inline FNV-1a-64 stream over bit-exact values: integers and
// float bits fold in little-endian byte order, strings byte by byte. It is the
// one hashing primitive behind every golden fingerprint — Result and trace
// here, calibration scores in internal/calib, fleet results in internal/fleet
// — so the goldens can never drift apart. A Hasher is a plain uint64: no
// interface call, no buffer, no allocation. Start one with NewHasher.
type Hasher struct{ h uint64 }

// NewHasher returns a Hasher at the FNV-64 offset basis.
func NewHasher() Hasher { return Hasher{h: fnvOffset64} }

// U64 folds u's eight bytes, least significant first.
func (w *Hasher) U64(u uint64) {
	h := w.h
	for i := 0; i < 8; i++ {
		h = (h ^ (u & 0xff)) * fnvPrime64
		u >>= 8
	}
	w.h = h
}

// F64 folds f's IEEE-754 bits, so NaN payloads, ±Inf and −0 hash distinctly.
func (w *Hasher) F64(f float64) { w.U64(math.Float64bits(f)) }

// Bool folds b as the float 1 or 0.
func (w *Hasher) Bool(b bool) {
	var f float64
	if b {
		f = 1
	}
	w.F64(f)
}

// Str folds s's bytes with no length prefix or terminator.
func (w *Hasher) Str(s string) {
	h := w.h
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	w.h = h
}

// Sum returns the digest of everything folded so far.
func (w *Hasher) Sum() uint64 { return w.h }

// ResultFingerprint hashes every numeric series and counter of a Result
// bit-exactly, including the robustness accounting and the final samples, so
// any drift in the simulation loop — decision order, stall accounting,
// truncation handling, guard state machine — changes the hash. This is the
// golden fingerprint pinned by internal/cmpsim/golden_test.go and stamped
// into every trace footer. Observability counters (Result.Obs) are gauges
// about the run, not simulated physics, and are excluded.
func ResultFingerprint(r *engine.Result) uint64 {
	w := NewHasher()
	for i := range r.ChipPowerW {
		w.F64(r.ChipPowerW[i])
		w.F64(r.BudgetW[i])
		for c := range r.CorePowerW[i] {
			w.F64(r.CorePowerW[i][c])
			w.F64(r.CoreInstr[i][c])
		}
	}
	for _, v := range r.Modes {
		for _, m := range v {
			w.F64(float64(m))
		}
	}
	for _, tc := range r.MaxTempC {
		w.F64(tc)
	}
	for c := range r.PerCoreInstr {
		w.F64(r.PerCoreInstr[c])
		w.F64(r.FinalSamples[c].PowerW)
		w.F64(r.FinalSamples[c].Instr)
		w.Bool(r.FinalSamples[c].Done)
	}
	w.F64(r.TotalInstr)
	w.F64(r.EnergyJ)
	w.F64(float64(r.Elapsed))
	w.F64(float64(r.TransitionStall))
	w.F64(float64(r.FirstCompleted))
	w.F64(float64(r.OvershootIntervals))
	w.F64(r.OvershootEnergyWs)
	w.F64(r.WorstOvershootWs)
	w.F64(float64(r.EmergencyEntries))
	w.F64(float64(r.EmergencyIntervals))
	w.F64(float64(r.RecoveryLatency))
	w.F64(float64(r.SanitizedSamples))
	w.F64(float64(r.RescaledIntervals))
	for _, c := range r.DeadCores {
		w.F64(float64(c))
	}
	return w.Sum()
}

// hashRecord folds the deterministic fields of one decision record into w.
// Wall-clock latencies (stage DurNs, DecideNs) are excluded: two runs of the
// same configuration must produce the same trace fingerprint on any machine.
func hashRecord(w *Hasher, r *Record) {
	w.F64(float64(r.Interval))
	w.F64(float64(r.NowNs))
	w.F64(r.BudgetW)
	w.F64(r.ChipPowerW)
	for c := range r.PowerW {
		w.F64(r.PowerW[c])
		w.F64(r.Instr[c])
	}
	w.F64(float64(len(r.TruePowerW)))
	for c := range r.TruePowerW {
		w.F64(r.TruePowerW[c])
		w.F64(r.TrueInstr[c])
	}
	for _, s := range r.Stages {
		w.Str(s.Name)
		w.F64(s.BudgetW)
		w.Bool(s.Override)
	}
	for _, m := range r.Vector {
		w.F64(float64(m))
	}
	w.F64(float64(len(r.Candidate)))
	for _, m := range r.Candidate {
		w.F64(float64(m))
	}
	w.Bool(r.Guard)
	w.F64(float64(r.StallNs))
	// The supervisor block is hashed only when the record is supervised, so
	// pre-schema-2 traces and unsupervised runs keep their exact historical
	// fingerprints. SupTimedOut is wall-clock dependent and excluded — a
	// deadline race must not change the trace fingerprint.
	if r.Sup {
		w.F64(1)
		w.F64(float64(r.SupRung))
		w.Bool(r.SupRejected)
		w.Bool(r.SupRepaired)
		w.F64(r.SupPredPowerW)
	}
}

// TraceFingerprint hashes the deterministic fields of every decision record
// in a parsed trace — identical to the trace_fingerprint the Writer stamps
// into the footer while streaming.
func TraceFingerprint(t *Trace) uint64 {
	w := NewHasher()
	for i := range t.Records {
		hashRecord(&w, &t.Records[i])
	}
	return w.Sum()
}
