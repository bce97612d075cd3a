// Package runner fans independent iNPG simulations out across CPU cores.
//
// The paper's evaluation is a large sweep of mutually independent runs —
// programs × mechanisms × lock primitives × seeds — and every sim.Engine
// is strictly single-threaded and seeded, so whole simulations are the
// natural unit of parallelism: each run executes on its own goroutine and
// produces results bit-identical to a serial execution of the same
// configuration. The runner bounds concurrency (default GOMAXPROCS) and
// returns results in submission order for deterministic aggregation.
//
// Two failure disciplines are offered. The fail-fast modes (ForEach,
// Run) abandon unstarted runs once any run fails and propagate the
// lowest-index error. The keep-going mode (RunResilient) isolates every
// failure — including panics, which are recovered and converted to typed
// *RunError values with their stacks — retries and quarantines cells,
// reports every attempt to an Observer, and returns a complete per-index
// outcome vector, so one bad cell cannot take down a thousand-run sweep.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"inpg"
	"inpg/internal/metrics"
)

// Workers resolves a worker-count setting: values > 0 are used as given,
// anything else selects GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// protect invokes fn with panic isolation: a panic is recovered and
// converted into a *RunError carrying the panic value and the goroutine
// stack captured at the recovery site. Error returns are coerced through
// asRunError, so callers always see a typed (or nil) failure.
func protect(index int, fn func() error) (rerr *RunError) {
	defer func() {
		if r := recover(); r != nil {
			rerr = &RunError{
				Index: index,
				Cause: CausePanic,
				Stack: debug.Stack(),
				Err:   fmt.Errorf("panic: %v", r),
			}
		}
	}()
	return asRunError(index, fn())
}

// forEachWorker is the shared claiming loop: indices are claimed in order
// by at most `workers` goroutines, each invocation runs under protect, and
// per-index failures land in the returned slice. With keepGoing false a
// failure abandons all unstarted indices (in-flight ones run to
// completion); with keepGoing true every index executes regardless.
// fn receives the claiming goroutine's 0-based worker number.
func forEachWorker(n, workers int, keepGoing bool, fn func(worker, i int) error) []*RunError {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	errs := make([]*RunError, n)
	var next atomic.Int64
	var failed atomic.Bool
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || (!keepGoing && failed.Load()) {
					return
				}
				if err := protect(i, func() error { return fn(g, i) }); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// ForEach invokes fn(i) for every i in [0, n) across at most workers
// goroutines and blocks until all invocations return. Indices are claimed
// in order, so with workers == 1 the calls happen exactly in sequence.
// The first error by index order is returned as a *RunError; once any
// invocation fails, unstarted indices are abandoned (in-flight ones run
// to completion). Panics in fn are recovered and reported the same way.
func ForEach(n, workers int, fn func(i int) error) error {
	for _, err := range forEachWorker(n, workers, false, func(_, i int) error { return fn(i) }) {
		if err != nil {
			return err
		}
	}
	return nil
}

// Status is an Outcome's position in the run lifecycle.
type Status string

const (
	// StatusRunning: a worker has claimed the run (the Done == false
	// outcome).
	StatusRunning Status = "running"
	// StatusOK: the run completed and its results are used.
	StatusOK Status = "ok"
	// StatusFailed: the run failed with no retry to follow.
	StatusFailed Status = "failed"
	// StatusRetrying: the attempt failed and a later attempt will re-run
	// this configuration.
	StatusRetrying Status = "retrying"
	// StatusQuarantined: every configured attempt failed; the cell is
	// excluded from aggregation and reported as missing.
	StatusQuarantined Status = "quarantined"
	// StatusAbandoned: a fleet worker's claim closed without a result —
	// another worker's report resolved the cell while it still held the
	// lease, so its own report will be dropped as a duplicate. Observers
	// must not count it as a completion.
	StatusAbandoned Status = "abandoned"
	// StatusSkipped: the run was never executed (resume found a valid
	// prior result). Skipped runs emit a single Done outcome.
	StatusSkipped Status = "skipped"
)

// Outcome reports one run's lifecycle to an observer. Each executed run
// produces two outcomes: one with Done == false when a worker claims it,
// one with Done == true when it finishes; skipped runs produce only the
// Done outcome. Snapshot is the run's final telemetry counter snapshot,
// nil unless the configuration enabled metrics.
type Outcome struct {
	Index  int
	Worker int
	Done   bool
	// Status refines Done: StatusRunning on claim; StatusOK, StatusFailed,
	// StatusRetrying, StatusQuarantined, StatusAbandoned or StatusSkipped
	// on completion. Zero ("") in outcomes from legacy hand-rolled loops.
	Status Status
	// Attempt is the 0-based retry attempt (always 0 outside RunResilient).
	Attempt int
	Cfg     inpg.Config
	Res     *inpg.Results
	Err     error
	// Snapshot and WallSeconds are meaningful only when Done.
	Snapshot    *metrics.Snapshot
	WallSeconds float64
}

// Observer receives run outcomes. It is invoked from worker goroutines —
// up to `workers` concurrently — so implementations must be safe for
// concurrent use (the sweep monitor folds under its mutex; the manifest
// writer touches only per-index files). The simulations themselves never
// see the observer: there are no locks or channels on any sim hot path.
type Observer func(Outcome)

// Run executes every configuration, each complete simulation on its own
// goroutine with at most workers concurrent (Workers semantics), and
// returns the results in submission order. On failure the remaining
// unstarted runs are abandoned and the lowest-index error is returned.
func Run(cfgs []inpg.Config, workers int) ([]*inpg.Results, error) {
	results := make([]*inpg.Results, len(cfgs))
	errs := forEachWorker(len(cfgs), workers, false, func(_, i int) error {
		sys, err := inpg.New(cfgs[i])
		if err != nil {
			return &RunError{Index: i, Cause: CauseConfig, Err: err}
		}
		results[i], err = sys.Run()
		return err
	})
	for i, err := range errs {
		if err != nil {
			if err.Digest == "" {
				err.Digest = cfgs[i].Digest()
			}
			return nil, err
		}
	}
	return results, nil
}
