package runner

import (
	"time"

	"inpg"
	"inpg/internal/metrics"
)

// Policy configures a resilient sweep: how wide and how patient. The
// zero value runs every cell once with GOMAXPROCS workers and no
// deadline.
type Policy struct {
	// Workers bounds concurrency (Workers semantics: <= 0 means
	// GOMAXPROCS).
	Workers int
	// RunTimeout, when positive, is each run's wall-clock deadline: the
	// run executes with a WallTimeBudget of at most RunTimeout, so an
	// overrunning run fails with CauseTimeout and a *SimulationError
	// carrying full Diagnostics.
	RunTimeout time.Duration
	// Observer, when non-nil, sees every run's claim and completion
	// outcomes (Status distinguishes ok / failed / skipped).
	Observer Observer
	// Skip, when non-nil and true for an index, elides that run entirely
	// (resume mode): a single StatusSkipped Done outcome is emitted and
	// the result slot stays nil for the caller to prefill.
	Skip func(i int) bool
	// PreAttempt, when non-nil, runs at the start of every run inside
	// the panic-isolation boundary — the chaos-injection hook: it may
	// panic to exercise a crashing cell through the failure path.
	PreAttempt func(i int)
}

// runCell executes one configuration under panic isolation and (when
// timeout > 0) a wall-clock deadline: the run's WallTimeBudget is the
// smaller of the configuration's own and timeout. The configuration's
// digest stays the caller's.
func runCell(i int, cfg inpg.Config, timeout time.Duration, preAttempt func(i int)) (res *inpg.Results, snap *metrics.Snapshot, wall float64, rerr *RunError) {
	start := time.Now()
	rerr = protect(i, func() error {
		if preAttempt != nil {
			preAttempt(i)
		}
		run := cfg
		if timeout > 0 && (run.WallTimeBudget <= 0 || timeout < run.WallTimeBudget) {
			run.WallTimeBudget = timeout
		}
		sys, err := inpg.New(run)
		if err != nil {
			return &RunError{Index: i, Cause: CauseConfig, Err: err}
		}
		res, err = sys.Run()
		snap = sys.MetricsSnapshot()
		return err
	})
	if rerr != nil && rerr.Digest == "" {
		rerr.Digest = cfg.Digest()
	}
	return res, snap, time.Since(start).Seconds(), rerr
}

// RunOne executes a single configuration once, with the panic isolation
// and wall-clock deadline (timeout, when positive) a local sweep cell
// gets, and returns its result, telemetry snapshot, wall time and typed
// failure. It is the fleet worker's building block: one leased cell,
// executed exactly as a local sweep would, with the lifecycle reporting
// left to the caller. A lone run has no sweep index, so a failure's
// RunError.Index is 0; callers report the cause and Err under their
// own cell index.
func RunOne(cfg inpg.Config, timeout time.Duration) (*inpg.Results, *metrics.Snapshot, float64, *RunError) {
	return runCell(0, cfg, timeout, nil)
}

// RunResilient executes every configuration once in keep-going mode:
// each cell runs under panic isolation and an optional deadline, and a
// failed cell is reported rather than aborting the sweep. Every
// simulation is seeded and single-threaded, so a failed cell would fail
// the same way again; re-running one is -resume's job. The returned
// slices are index-aligned with cfgs: results[i] is non-nil exactly when
// the cell succeeded (or was skipped and prefilled by the caller),
// errs[i] is a failed cell's typed failure.
//
// On a fault-free sweep RunResilient produces the results of running
// each configuration in place with inpg.New and System.Run: deadlines
// never fire, and the simulations themselves are untouched
// single-threaded deterministic runs.
func RunResilient(cfgs []inpg.Config, p Policy) ([]*inpg.Results, []*RunError) {
	results := make([]*inpg.Results, len(cfgs))
	finalErrs := make([]*RunError, len(cfgs))
	loopErrs := forEachWorker(len(cfgs), p.Workers, true, func(i int) error {
		cfg := cfgs[i]
		if p.Skip != nil && p.Skip(i) {
			if p.Observer != nil {
				p.Observer(Outcome{Index: i, Done: true, Status: StatusSkipped, Cfg: cfg})
			}
			return nil
		}
		if p.Observer != nil {
			p.Observer(Outcome{Index: i, Status: StatusRunning, Cfg: cfg})
		}
		res, snap, wall, rerr := runCell(i, cfg, p.RunTimeout, p.PreAttempt)
		if p.Observer != nil {
			out := Outcome{Index: i, Done: true, Status: StatusOK,
				Cfg: cfg, Res: res, Snapshot: snap, WallSeconds: wall}
			if rerr != nil {
				out.Status, out.Err = StatusFailed, rerr
			}
			p.Observer(out)
		}
		if rerr != nil {
			finalErrs[i] = rerr
		} else {
			results[i] = res
		}
		return nil
	})
	// Safety net: a panic escaping the per-run isolation (e.g. from an
	// observer) still lands in the per-index vector.
	for i, err := range loopErrs {
		if err != nil && finalErrs[i] == nil {
			finalErrs[i] = err
			results[i] = nil
		}
	}
	return results, finalErrs
}
