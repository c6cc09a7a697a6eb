package experiment

import "gpm/internal/pool"

// workers resolves the env's worker bound (0 = GOMAXPROCS).
func (e *Env) workers() int { return pool.Workers(e.Workers) }

// chipWorkers divides the env's workers among `concurrent` simultaneous
// cycle-level chips, so a sweep that fans out whole runs does not multiply
// its goroutine budget by the per-chip worker count.
func (e *Env) chipWorkers(concurrent int) int {
	if concurrent < 1 {
		concurrent = 1
	}
	w := e.workers() / concurrent
	if w < 1 {
		w = 1
	}
	return w
}
