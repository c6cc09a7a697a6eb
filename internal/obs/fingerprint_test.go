package obs

import (
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/modes"
)

// refWriter is the reference the inline Hasher must reproduce: hash/fnv's
// FNV-64a fed the same little-endian float bits through hash.Hash64.
type refWriter struct{ h hash.Hash64 }

func (w refWriter) f(f float64) {
	var b [8]byte
	u := math.Float64bits(f)
	for i := range b {
		b[i] = byte(u >> (8 * i))
	}
	w.h.Write(b[:])
}

func (w refWriter) bool(b bool) {
	if b {
		w.f(1)
	} else {
		w.f(0)
	}
}

func refResultFingerprint(r *engine.Result) uint64 {
	w := refWriter{fnv.New64a()}
	for i := range r.ChipPowerW {
		w.f(r.ChipPowerW[i])
		w.f(r.BudgetW[i])
		for c := range r.CorePowerW[i] {
			w.f(r.CorePowerW[i][c])
			w.f(r.CoreInstr[i][c])
		}
	}
	for _, v := range r.Modes {
		for _, m := range v {
			w.f(float64(m))
		}
	}
	for _, tc := range r.MaxTempC {
		w.f(tc)
	}
	for c := range r.PerCoreInstr {
		w.f(r.PerCoreInstr[c])
		w.f(r.FinalSamples[c].PowerW)
		w.f(r.FinalSamples[c].Instr)
		w.bool(r.FinalSamples[c].Done)
	}
	for _, v := range []float64{
		r.TotalInstr, r.EnergyJ, float64(r.Elapsed), float64(r.TransitionStall),
		float64(r.FirstCompleted), float64(r.OvershootIntervals), r.OvershootEnergyWs,
		r.WorstOvershootWs, float64(r.EmergencyEntries), float64(r.EmergencyIntervals),
		float64(r.RecoveryLatency), float64(r.SanitizedSamples), float64(r.RescaledIntervals),
	} {
		w.f(v)
	}
	for _, c := range r.DeadCores {
		w.f(float64(c))
	}
	return w.h.Sum64()
}

func refTraceFingerprint(t *Trace) uint64 {
	w := refWriter{fnv.New64a()}
	for i := range t.Records {
		r := &t.Records[i]
		w.f(float64(r.Interval))
		w.f(float64(r.NowNs))
		w.f(r.BudgetW)
		w.f(r.ChipPowerW)
		for c := range r.PowerW {
			w.f(r.PowerW[c])
			w.f(r.Instr[c])
		}
		w.f(float64(len(r.TruePowerW)))
		for c := range r.TruePowerW {
			w.f(r.TruePowerW[c])
			w.f(r.TrueInstr[c])
		}
		for _, s := range r.Stages {
			w.h.Write([]byte(s.Name))
			w.f(s.BudgetW)
			w.bool(s.Override)
		}
		for _, m := range r.Vector {
			w.f(float64(m))
		}
		w.f(float64(len(r.Candidate)))
		for _, m := range r.Candidate {
			w.f(float64(m))
		}
		w.bool(r.Guard)
		w.f(float64(r.StallNs))
		if r.Sup {
			w.f(1)
			w.f(float64(r.SupRung))
			w.bool(r.SupRejected)
			w.bool(r.SupRepaired)
			w.f(r.SupPredPowerW)
		}
	}
	return w.h.Sum64()
}

// randFloat draws mostly ordinary values with the bit patterns a float hash
// can get wrong mixed in: NaN, ±Inf, −0 and subnormals.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*rng.Intn(2))
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(100))
	default:
		return rng.NormFloat64() * 1e3
	}
}

func randFloats(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = randFloat(rng)
	}
	return out
}

func randInts(rng *rand.Rand, n, max int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(max)
	}
	return out
}

func randResult(rng *rand.Rand) *engine.Result {
	n, deltas := 1+rng.Intn(8), rng.Intn(40)
	r := &engine.Result{
		ChipPowerW:         randFloats(rng, deltas),
		BudgetW:            randFloats(rng, deltas),
		PerCoreInstr:       randFloats(rng, n),
		TotalInstr:         randFloat(rng),
		EnergyJ:            randFloat(rng),
		Elapsed:            time.Duration(rng.Int63()),
		TransitionStall:    time.Duration(rng.Intn(1e6)),
		FirstCompleted:     rng.Intn(n+1) - 1,
		OvershootIntervals: rng.Intn(deltas + 1),
		OvershootEnergyWs:  randFloat(rng),
		WorstOvershootWs:   randFloat(rng),
		EmergencyEntries:   rng.Intn(5),
		EmergencyIntervals: rng.Intn(50),
		RecoveryLatency:    time.Duration(rng.Intn(1e7)),
		SanitizedSamples:   rng.Intn(20),
		RescaledIntervals:  rng.Intn(20),
	}
	for i := 0; i < deltas; i++ {
		r.CorePowerW = append(r.CorePowerW, randFloats(rng, n))
		r.CoreInstr = append(r.CoreInstr, randFloats(rng, n))
	}
	for k := 0; k < deltas/10+1; k++ {
		v := make(modes.Vector, n)
		for c := range v {
			v[c] = modes.Mode(rng.Intn(4))
		}
		r.Modes = append(r.Modes, v)
	}
	if rng.Intn(2) == 0 {
		r.MaxTempC = randFloats(rng, deltas)
	}
	r.FinalSamples = make([]core.Sample, n)
	for c := range r.FinalSamples {
		r.FinalSamples[c] = core.Sample{PowerW: randFloat(rng), Instr: randFloat(rng), Done: rng.Intn(2) == 0}
	}
	if rng.Intn(2) == 0 {
		r.DeadCores = randInts(rng, 1+rng.Intn(n), n)
	}
	return r
}

func randRecord(rng *rand.Rand, i int) Record {
	n := 1 + rng.Intn(8)
	r := Record{
		Interval:   i,
		NowNs:      rng.Int63(),
		BudgetW:    randFloat(rng),
		ChipPowerW: randFloat(rng),
		PowerW:     randFloats(rng, n),
		Instr:      randFloats(rng, n),
		Vector:     randInts(rng, n, 4),
		Guard:      rng.Intn(2) == 0,
		StallNs:    rng.Int63n(1e6),
		DecideNs:   rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		r.TruePowerW, r.TrueInstr = randFloats(rng, n), randFloats(rng, n)
	}
	if rng.Intn(2) == 0 {
		r.Candidate = randInts(rng, n, 4)
	}
	for _, name := range []string{"budget", "fault-budget", "thermal-clamp", "fault-observe", "é∑"}[:rng.Intn(6)] {
		r.Stages = append(r.Stages, StageRec{Name: name, BudgetW: randFloat(rng), Override: rng.Intn(2) == 0, DurNs: rng.Int63()})
	}
	if rng.Intn(2) == 0 {
		r.Sup = true
		r.SupRung = rng.Intn(4)
		r.SupRejected = rng.Intn(2) == 0
		r.SupRepaired = rng.Intn(2) == 0
		r.SupPredPowerW = randFloat(rng)
		r.SupTimedOut = rng.Intn(2) == 0
	}
	return r
}

// TestFingerprintsMatchHashFNV pins the inline Hasher to hash/fnv's FNV-64a
// over random Results and traces, so the goldens stay bit-identical to the
// interface-backed writer they were captured with.
func TestFingerprintsMatchHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		r := randResult(rng)
		if got, want := ResultFingerprint(r), refResultFingerprint(r); got != want {
			t.Fatalf("result %d: ResultFingerprint %#x, hash/fnv reference %#x", i, got, want)
		}
		tr := &Trace{}
		for k := rng.Intn(6); k > 0; k-- {
			tr.Records = append(tr.Records, randRecord(rng, len(tr.Records)))
		}
		if got, want := TraceFingerprint(tr), refTraceFingerprint(tr); got != want {
			t.Fatalf("trace %d: TraceFingerprint %#x, hash/fnv reference %#x", i, got, want)
		}
	}
	// The exported primitives on their own, strings included.
	h, ref := NewHasher(), fnv.New64a()
	for i := 0; i < 200; i++ {
		u := rng.Uint64()
		h.U64(u)
		var b [8]byte
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		ref.Write(b[:])
		k := rng.Intn(9)
		rng.Read(b[:k])
		h.Str(string(b[:k]))
		ref.Write(b[:k])
	}
	if h.Sum() != ref.Sum64() {
		t.Fatalf("Hasher.U64/Str %#x, hash/fnv %#x", h.Sum(), ref.Sum64())
	}
}

// TestResultFingerprintZeroAllocs pins the streaming hash: fingerprinting a
// Result touches no heap, however many floats it folds.
func TestResultFingerprintZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := randResult(rng)
	for len(r.ChipPowerW) == 0 {
		r = randResult(rng)
	}
	if a := testing.AllocsPerRun(20, func() { ResultFingerprint(r) }); a != 0 {
		t.Errorf("ResultFingerprint allocates %v times per call, want 0", a)
	}
}
