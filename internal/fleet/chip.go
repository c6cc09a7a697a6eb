package fleet

import (
	"time"

	"gpm/internal/cmpsim"
	"gpm/internal/core"
	"gpm/internal/engine"
	"gpm/internal/modes"
	"gpm/internal/solver"
	"gpm/internal/trace"
)

// coreQueue is one core's FIFO of routed requests.
type coreQueue struct {
	q            []*request
	backlogInstr float64
}

// chip is one managed CMP in the fleet: an engine loop over the cmpsim
// substrate plus the serving state layered on top of it. The engine's
// committed-instruction rows are the service capacity: a request assigned to
// core k consumes CostInstr of core k's committed instructions, in FIFO
// order, and completes at the interpolated instant within the 50 µs delta
// where its cost is exhausted. Instructions committed while a core's queue
// is empty (or its head has not arrived yet) are idle capacity and are not
// banked — a burst after a quiet period still has to be served at the
// chip's current rate.
type chip struct {
	id   int
	loop *engine.Loop

	// grantW is the arbiter's current budget; the engine's budget function
	// reads it at every explore boundary. Written serially between windows,
	// read by the chip's own worker during them.
	grantW float64

	// envelopeW and turboInstrPerSec are the all-Turbo bootstrap telemetry:
	// the envelope anchors the arbiter's grant levels, the rate seeds its
	// efficiency estimate and normalizes router backlog scores.
	envelopeW        float64
	turboInstrPerSec float64

	cores        []coreQueue
	queued       int     // routed-but-incomplete requests on this chip
	backlogInstr float64 // Σ remaining cost across cores

	// estEff is the EWMA instructions-per-joule estimate the arbiter uses
	// to translate a candidate grant into expected committed instructions.
	estEff float64
	// routedInstrEpoch accumulates routed request cost within the current
	// epoch — the arbiter's arrival predictor for the next one.
	routedInstrEpoch float64
	// lastTotalInstr/lastEnergyJ checkpoint the engine accounting at the
	// previous epoch boundary.
	lastTotalInstr, lastEnergyJ float64

	drained  int // CoreInstr rows already folded into the serving state
	deltasPW int
}

func newChip(lib *trace.Library, cfg Config, id int) (*chip, error) {
	simCfg := lib.Config()
	c := &chip{
		id:       id,
		deltasPW: simCfg.DeltaPerExplore(),
	}

	// Bootstrap telemetry from fresh players: the all-Turbo power envelope
	// and instruction rate over one explore interval. Fresh players peek
	// without advancing, so this does not perturb the engine's own players.
	players, err := lib.Players(cfg.Combo)
	if err != nil {
		return nil, err
	}
	exploreSec := simCfg.Sim.Explore.Seconds()
	for _, pl := range players {
		e, in := pl.Peek(modes.Turbo, exploreSec)
		c.envelopeW += e / exploreSec
		c.turboInstrPerSec += in / exploreSec
	}
	if c.envelopeW > 0 {
		c.estEff = c.turboInstrPerSec / c.envelopeW
	}
	c.grantW = c.envelopeW // pre-arbiter placeholder; epoch 0 overwrites it

	c.loop, err = cmpsim.NewLoop(lib, cfg.Combo, cmpsim.Options{
		Budget:  func(time.Duration) float64 { return c.grantW },
		Policy:  core.NewSolverPolicy(&solver.BB{}),
		Horizon: cfg.Horizon,
		Predictor: core.Predictor{
			Plan:           lib.Plan(),
			PowerScale:     powerScale(lib),
			ExploreSeconds: exploreSec,
		},
	})
	if err != nil {
		return nil, err
	}
	c.cores = make([]coreQueue, cfg.Combo.Cores())
	return c, nil
}

// powerScale returns the design-time mode→power scale law, mirroring
// experiment.Env.Predictor.
func powerScale(lib *trace.Library) func(m modes.Mode) float64 {
	model, plan := lib.Model(), lib.Plan()
	return func(m modes.Mode) float64 { return model.ScaleLaw(plan, m) }
}

// advance steps the chip's engine one window (DeltasPerExplore deltas). A
// chip whose engine is done — §5.1 first completion or horizon — stays put:
// its queues stop draining and requests pile into SLO misses, which is
// exactly what a saturated or retired chip looks like to the router.
func (c *chip) advance() error {
	for i := 0; i < c.deltasPW; i++ {
		done, err := c.loop.StepDelta()
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	return nil
}

// drain folds the engine's new committed-instruction rows into the serving
// state: per delta, per core, requests consume instructions FIFO and
// complete at interpolated instants. Called serially in chip order, so the
// request log is filled in canonical (chip, delta, core) order.
func (c *chip) drain(f *Fleet) {
	rows := c.loop.Result().CoreInstr
	for r := c.drained; r < len(rows); r++ {
		t0 := float64(r) * f.deltaSec
		for k := range rows[r] {
			c.serveDelta(k, t0, f.deltaSec, rows[r][k])
		}
	}
	c.drained = len(rows)
}

// serveDelta advances core k's FIFO across one delta [t0, t0+dt) in which
// the core committed instr instructions (a uniform rate within the delta).
func (c *chip) serveDelta(k int, t0, dt, instr float64) {
	cq := &c.cores[k]
	if len(cq.q) == 0 || instr <= 0 {
		return
	}
	rate := instr / dt
	end := t0 + dt
	cursor := t0
	for len(cq.q) > 0 {
		rq := cq.q[0]
		if rq.arriveSec > cursor {
			cursor = rq.arriveSec // idle until the head arrives; capacity is not banked
		}
		if cursor >= end {
			break
		}
		avail := (end - cursor) * rate
		if avail < rq.remaining {
			rq.remaining -= avail
			cq.backlogInstr -= avail
			c.backlogInstr -= avail
			break
		}
		cursor += rq.remaining / rate
		cq.backlogInstr -= rq.remaining
		c.backlogInstr -= rq.remaining
		rq.remaining = 0
		rq.done = true
		rq.completeSec = cursor
		c.queued--
		cq.q = cq.q[1:]
	}
}

// enqueue routes one request onto core k.
func (c *chip) enqueue(k int, rq *request) {
	rq.chip, rq.core = c.id, k
	rq.remaining = rq.cost
	cq := &c.cores[k]
	cq.q = append(cq.q, rq)
	cq.backlogInstr += rq.cost
	c.backlogInstr += rq.cost
	c.queued++
	c.routedInstrEpoch += rq.cost
}

// leastLoadedCore picks the core with the smallest backlog, lowest index on
// ties.
func (c *chip) leastLoadedCore() int {
	best := 0
	for k := 1; k < len(c.cores); k++ {
		if c.cores[k].backlogInstr < c.cores[best].backlogInstr {
			best = k
		}
	}
	return best
}
