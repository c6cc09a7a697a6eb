// Package pool is the module's one bounded fan-out primitive. It is a leaf
// package so that both the experiment sweep runners and the fleet's chip
// stepper can import it.
package pool

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on at most `workers` goroutines
// (the calling goroutine participates, so only workers-1 are spawned). Jobs
// are claimed through an atomic cursor, so the schedule is dynamic but the
// caller's result placement — indexed writes into pre-sized slices — is
// deterministic regardless of worker count. Errors are joined in index
// order. workers <= 1 degenerates to a plain serial loop on the caller.
//
// It bounds total goroutines per sweep (replacing unbounded per-job
// spawning) and keeps nested use safe — a nested ForEach still bounds its
// own spawn count and always makes progress on the calling goroutine.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var cursor atomic.Int64
	work := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers - 1)
		for k := 0; k < workers-1; k++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
	}
	return errors.Join(errs...)
}

// Workers resolves a worker bound: w when positive, else GOMAXPROCS.
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}
