package fleet

import "gpm/internal/obs"

// serveHash folds every request's routing and completion outcome — in
// canonical arrival order — into one FNV-64a digest. Any drift in arrival
// generation, placement, admission or completion interpolation moves it.
func serveHash(reqs []*request) uint64 {
	h := obs.NewHasher()
	for _, rq := range reqs {
		h.U64(uint64(rq.cohort)<<40 | uint64(rq.client)<<20 | uint64(uint32(rq.seq)))
		h.F64(rq.arriveSec)
		h.U64(uint64(int64(rq.chip))<<32 | uint64(uint32(rq.core)))
		switch {
		case rq.shed:
			h.U64(1)
		case rq.done:
			h.U64(2)
			h.F64(rq.completeSec)
		default:
			h.U64(3)
			h.F64(rq.remaining)
		}
	}
	return h.Sum()
}

// Fingerprint hashes a fleet result bit-exactly: the serving digest, the
// arbiter's epoch log, and every chip's engine fingerprint. This is the
// golden the fleet serving path is pinned by, alongside the cmpsim/trace
// goldens.
func Fingerprint(r *Result) uint64 {
	h := obs.NewHasher()
	h.U64(r.ServeHash)
	h.U64(uint64(r.Arrived))
	h.U64(uint64(r.Completed))
	h.U64(uint64(r.Shed))
	h.U64(uint64(r.Unfinished))
	for _, e := range r.EpochLog {
		h.F64(float64(e.Start))
		h.F64(e.FacilityCapW)
		for i := range e.GrantW {
			h.F64(e.GrantW[i])
			h.F64(e.BacklogInstr[i])
			h.F64(e.DemandInstr[i])
		}
	}
	for _, cs := range r.Cohorts {
		h.U64(uint64(cs.AttainedSLO))
		h.F64(cs.ServedInstr)
	}
	for _, cr := range r.ChipResults {
		h.U64(obs.ResultFingerprint(cr))
	}
	return h.Sum()
}
