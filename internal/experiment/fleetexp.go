package experiment

import (
	"fmt"

	"gpm/internal/fleet"
	"gpm/internal/pool"
)

// FleetCapFracs is the default facility-cap sweep: fractions of the fleet's
// summed chip envelopes, the datacenter analogue of DefaultBudgets.
var FleetCapFracs = []float64{0.50, 0.60, 0.70, 0.80, 0.90, 1.00}

// FleetSweepPoint is one facility-cap operating point: the serving outcome of
// a whole fleet scenario at that cap.
type FleetSweepPoint struct {
	// CapFrac is the facility cap as a fraction of Σ chip envelopes;
	// FacilityCapW the resolved watts.
	CapFrac      float64
	FacilityCapW float64

	ThroughputRPS float64
	// ShedFrac is the fraction of arrivals rejected by admission control.
	ShedFrac float64
	// JainFairness is Jain's index over per-cohort SLO attainment.
	JainFairness      float64
	AvgFacilityPowerW float64
	// Cohorts carries per-class SLO attainment and latency percentiles.
	Cohorts []fleet.CohortStats
}

// FleetSweep runs one fleet scenario per facility-cap fraction (nil selects
// FleetCapFracs) and reports throughput, shed rate, per-class SLO attainment
// and fairness versus the cap — the knee of these curves is the fleet-level
// analogue of the paper's budget/degradation curves. Points fan out on the
// env's worker pool with serial chip stepping inside each point; results are
// deterministic and identical for every worker count.
func (e *Env) FleetSweep(cfg fleet.Config, capFracs []float64) ([]FleetSweepPoint, error) {
	if capFracs == nil {
		capFracs = FleetCapFracs
	}
	pts := make([]FleetSweepPoint, len(capFracs))
	err := pool.ForEach(e.workers(), len(capFracs), func(i int) error {
		c := cfg
		c.FacilityCapW = nil
		c.CapFrac = capFracs[i]
		c.Workers = 1
		res, runErr := fleet.Run(e.Lib, c)
		if runErr != nil {
			return fmt.Errorf("fleet @ cap %.0f%%: %w", 100*capFracs[i], runErr)
		}
		pt := FleetSweepPoint{
			CapFrac:           capFracs[i],
			ThroughputRPS:     res.ThroughputRPS,
			JainFairness:      res.JainFairness,
			AvgFacilityPowerW: res.AvgFacilityPowerW,
			Cohorts:           res.Cohorts,
		}
		if res.Arrived > 0 {
			pt.ShedFrac = float64(res.Shed) / float64(res.Arrived)
		}
		if len(res.EpochLog) > 0 {
			pt.FacilityCapW = res.EpochLog[0].FacilityCapW
		}
		pts[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}
