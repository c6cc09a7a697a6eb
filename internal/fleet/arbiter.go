package fleet

import (
	"time"

	"gpm/internal/modes"
	"gpm/internal/solver"
	"gpm/internal/trace"
)

// arbiter redistributes the facility power cap across chips once per epoch.
// The rebalance is a budgeted mode-allocation instance with chips as "cores"
// and grant levels as "modes": Power[i][j] is level j's wattage for chip i
// (a fraction of its envelope), Instr[i][j] the committed instructions the
// grant is expected to buy — min(demand, estEff·W·epoch), so a chip with no
// backlog bids nothing and the solver's lower-power tie-break parks it at
// the deepest level. The instance is solved by solver.Hier — clusters of
// ClusterSize chips, exact BB inside each, slack rebalanced between them,
// and EWMA share smoothing (HierAlpha) carrying grants across epochs — the
// same machinery that scales the on-chip decision to 1000 cores, one level
// up. The Hier runs inside a solver.Session: the share state lives there,
// each epoch's solve is warm-started from the previous epoch's grant vector,
// and the instance matrices reuse one flat backing, so the steady-state
// epoch decision is allocation-free. A per-chip grant EWMA (GrantSmoothing)
// then damps epoch-to-epoch oscillation, and grants rescale to the cap
// whenever smoothing overshoots it, so Σ grants ≤ cap holds at every epoch —
// including the epoch right after a mid-run cap cut, which is how a facility
// brownout cascades into per-chip budgets and, through each engine's next
// decision, mode vectors.
type arbiter struct {
	levels   []float64
	plan     modes.Plan // len(Levels) == len(levels); solvers only read the mode count
	sess     *solver.Session
	beta     float64
	epochSec float64

	// Reused epoch-solve state: the instance matrices (rows sliced from the
	// flat backings) and the previous epoch's solution as the warm hint.
	power, instr         [][]float64
	powerFlat, instrFlat []float64
	lastVec              modes.Vector
	lastInstr            float64

	// Dirty detection, mirrored from core.MatricesInto's row skip: chip i's
	// matrix rows are pure functions of (estEff, demand) under fixed levels
	// and envelope, so rebalance refills only the chips whose inputs changed.
	// When no chip is dirty, the cap is bit-equal, and the session attests
	// stability, the epoch solve is skipped outright and lastVec reused.
	lastEff    []float64
	lastDemand []float64
	lastCapW   float64
	haveCap    bool
}

func newArbiter(lib *trace.Library, cfg Config, chips []*chip) *arbiter {
	a := &arbiter{
		levels:   cfg.Levels,
		beta:     cfg.GrantSmoothing,
		epochSec: cfg.Epoch.Seconds(),
		sess: solver.NewSession(&solver.Hier{
			ClusterSize: cfg.ClusterSize,
			Inner:       &solver.BB{},
			Alpha:       cfg.HierAlpha,
		}),
	}
	// The solver reads only the plan's mode count; voltage scales are
	// cosmetic here but keep the plan valid.
	simPlan := lib.Plan()
	a.plan = modes.Plan{NominalVdd: simPlan.NominalVdd, TransitionRateVPerUs: simPlan.TransitionRateVPerUs}
	for j, frac := range cfg.Levels {
		a.plan.Levels = append(a.plan.Levels, modes.Level{
			Name:   levelName(j),
			VScale: frac,
			FScale: frac,
		})
	}
	return a
}

// close releases the arbiter's solver session. Idempotent.
func (a *arbiter) close() {
	if a.sess != nil {
		a.sess.Close()
		a.sess = nil
	}
}

func levelName(j int) string {
	if j == 0 {
		return "Full"
	}
	return "G" + string(rune('0'+j))
}

// ensureMatrices sizes the reused instance matrices for n chips × m levels,
// reporting whether they (and the dirty-detection state) were rebuilt — a
// rebuild marks every chip dirty for the coming fill.
func (a *arbiter) ensureMatrices(n, m int) bool {
	if len(a.power) == n && len(a.powerFlat) == n*m {
		return false
	}
	a.powerFlat = make([]float64, n*m)
	a.instrFlat = make([]float64, n*m)
	a.power = make([][]float64, n)
	a.instr = make([][]float64, n)
	for i := 0; i < n; i++ {
		a.power[i] = a.powerFlat[i*m : (i+1)*m : (i+1)*m]
		a.instr[i] = a.instrFlat[i*m : (i+1)*m : (i+1)*m]
	}
	a.lastEff = make([]float64, n)
	a.lastDemand = make([]float64, n)
	return true
}

// rebalance folds each chip's telemetry since the last epoch, solves the
// facility allocation at time now, and publishes the new grants. Called
// serially at window boundaries, strictly before the window's routing and
// chip stepping.
func (a *arbiter) rebalance(f *Fleet, now time.Duration) EpochStats {
	n := len(f.chips)
	st := EpochStats{
		Start:        now,
		FacilityCapW: f.capW(now),
		GrantW:       make([]float64, n),
		BacklogInstr: make([]float64, n),
		DemandInstr:  make([]float64, n),
	}

	fresh := a.ensureMatrices(n, len(a.levels))
	power, instr := a.power, a.instr
	dirty := 0
	for i, c := range f.chips {
		// Efficiency telemetry: committed instructions per joule over the
		// last epoch, EWMA-blended so one noisy epoch cannot whipsaw the
		// capacity model. Epoch 0 runs on the all-Turbo bootstrap estimate.
		res := c.loop.Result()
		if dE := res.EnergyJ - c.lastEnergyJ; dE > 0 {
			obs := (res.TotalInstr - c.lastTotalInstr) / dE
			c.estEff = 0.5*c.estEff + 0.5*obs
		}
		c.lastTotalInstr, c.lastEnergyJ = res.TotalInstr, res.EnergyJ

		// Demand: what is already queued plus what the last epoch routed
		// here (the open-loop arrival predictor for the next one).
		demand := c.backlogInstr + c.routedInstrEpoch
		c.routedInstrEpoch = 0
		st.BacklogInstr[i] = c.backlogInstr
		st.DemandInstr[i] = demand

		// Chip i's rows depend only on (estEff, demand): skip the fill when
		// both are bit-identical to last epoch.
		if !fresh && c.estEff == a.lastEff[i] && demand == a.lastDemand[i] {
			continue
		}
		a.lastEff[i] = c.estEff
		a.lastDemand[i] = demand
		dirty++
		for j, frac := range a.levels {
			w := frac * c.envelopeW
			power[i][j] = w
			cap := c.estEff * w * a.epochSec
			if cap > demand {
				cap = demand
			}
			instr[i][j] = cap
		}
	}
	st.DirtyChips = dirty

	// Steady-state shortcut: nothing changed (no dirty chip, bit-equal cap)
	// and the session attests that re-running the previous solve would
	// reproduce its vector without moving internal state — so skip it and
	// reuse the grant vector. Grant smoothing and cap rescaling still run.
	if dirty == 0 && a.haveCap && st.FacilityCapW == a.lastCapW &&
		len(a.lastVec) == n && a.sess.ResultStable() {
		st.SolveSkipped = true
	} else {
		inst := solver.Instance{
			Plan:      a.plan,
			BudgetW:   st.FacilityCapW,
			Power:     power,
			Instr:     instr,
			FlatPower: a.powerFlat,
			FlatInstr: a.instrFlat,
		}
		v, _ := a.sess.Solve(inst, solver.Hint{Vector: a.lastVec, Instr: a.lastInstr})
		a.lastVec = append(a.lastVec[:0], v...) // v aliases session scratch
		a.lastInstr = inst.VectorInstr(a.lastVec)
	}
	a.lastCapW = st.FacilityCapW
	a.haveCap = true

	var sum float64
	for i := range f.chips {
		g := power[i][a.lastVec[i]]
		if a.beta > 0 {
			g = a.beta*f.chips[i].grantW + (1-a.beta)*g
		}
		st.GrantW[i] = g
		sum += g
	}
	// Smoothing can hold grants above a freshly cut cap for one blend step;
	// the cap is a hard facility limit, so rescale.
	if sum > st.FacilityCapW && sum > 0 {
		scale := st.FacilityCapW / sum
		for i := range st.GrantW {
			st.GrantW[i] *= scale
		}
	}
	for i, c := range f.chips {
		c.grantW = st.GrantW[i]
	}
	return st
}
