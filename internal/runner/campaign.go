package runner

import (
	"context"
	"hash/fnv"
	"io"
	"log/slog"
	"time"

	"inpg"
	"inpg/internal/metrics"
)

// discardLog swallows structured logs when no Policy.Log is configured.
var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// Default backoff bounds for Policy. The base is long enough to let a
// transient host hiccup (page cache pressure, a co-scheduled burst) pass,
// short enough that a three-attempt cell adds well under a second of
// sweep latency.
const (
	DefaultBackoffBase = 25 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
)

// Policy configures a resilient sweep: how wide, how patient, and how
// stubborn. The zero value runs every cell once with GOMAXPROCS workers,
// no deadline and no retries.
type Policy struct {
	// Workers bounds concurrency (Workers semantics: <= 0 means
	// GOMAXPROCS).
	Workers int
	// Retries is the number of re-attempts after a failed run: a cell is
	// executed at most Retries+1 times before being quarantined.
	Retries int
	// BackoffBase and BackoffMax bound the deterministic jittered
	// exponential backoff between attempts (defaults when <= 0:
	// DefaultBackoffBase, DefaultBackoffMax).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// RunTimeout, when positive, is each attempt's wall-clock deadline,
	// enforced via cooperative cancellation (System.AbortOn): an
	// overrunning attempt fails with a timeout-reason *SimulationError
	// carrying full Diagnostics.
	RunTimeout time.Duration
	// Observer, when non-nil, sees every attempt's claim and completion
	// outcomes (Status distinguishes ok / retrying / quarantined /
	// skipped).
	Observer Observer
	// Skip, when non-nil and true for an index, elides that run entirely
	// (resume mode): a single StatusSkipped Done outcome is emitted and
	// the result slot stays nil for the caller to prefill.
	Skip func(i int) bool
	// PreRun, when non-nil, maps the stored configuration to the one
	// actually executed (chaos injection, per-cell overrides). Digest and
	// observer outcomes use the mapped configuration.
	PreRun func(i int, cfg inpg.Config) inpg.Config
	// PreAttempt, when non-nil, runs at the start of every attempt inside
	// the panic-isolation boundary — the chaos-injection hook: it may
	// panic to exercise a crashing cell through the full retry and
	// quarantine path.
	PreAttempt func(i, attempt int)
	// Log, when non-nil, receives structured records for the failure
	// machinery — one per failed attempt, tagged with cell, digest,
	// attempt and cause — so a long sweep's retries and quarantines are
	// diagnosable after the fact. Nil discards.
	Log *slog.Logger
}

// logger returns the policy's structured logger, or a discarder.
func (p Policy) logger() *slog.Logger {
	if p.Log != nil {
		return p.Log
	}
	return discardLog
}

// Backoff returns the delay before retry `attempt` (1-based: attempt 0 is
// the first try and never waits) of the run whose configuration hashes to
// digest. The schedule is exponential — base doubling per attempt, capped
// at max — with a deterministic jitter factor in [0.5, 1.5) derived from
// (digest, attempt), so concurrent retries of different cells decorrelate
// while any given cell's schedule is exactly reproducible.
func Backoff(digest string, attempt int, base, max time.Duration) time.Duration {
	if attempt <= 0 {
		return 0
	}
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	shift := uint(attempt - 1)
	if shift > 20 {
		shift = 20
	}
	d := base << shift
	if d <= 0 || d > max {
		d = max
	}
	h := fnv.New64a()
	h.Write([]byte(digest))
	h.Write([]byte{'#', byte(attempt), byte(attempt >> 8)})
	jitter := 0.5 + float64(h.Sum64()%1024)/1024
	d = time.Duration(float64(d) * jitter)
	if d > max {
		d = max
	}
	return d
}

// attemptOne executes a single attempt of one configuration under panic
// isolation and (when timeout > 0) a cooperative wall-clock deadline.
func attemptOne(i, attempt int, cfg inpg.Config, digest string, timeout time.Duration, preAttempt func(i, attempt int)) (res *inpg.Results, snap *metrics.Snapshot, wall float64, rerr *RunError) {
	start := time.Now()
	rerr = protect(i, func() error {
		if preAttempt != nil {
			preAttempt(i, attempt)
		}
		sys, err := inpg.New(cfg)
		if err != nil {
			return &RunError{Index: i, Cause: CauseConfig, Err: err}
		}
		if timeout > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			sys.AbortOn(ctx)
		}
		res, err = sys.Run()
		snap = sys.MetricsSnapshot()
		return err
	})
	if rerr != nil {
		rerr.Attempt = attempt
		if rerr.Digest == "" {
			rerr.Digest = digest
		}
	}
	return res, snap, time.Since(start).Seconds(), rerr
}

// RunOne executes a single configuration under the policy's retry
// machinery — panic isolation, per-attempt deadline (p.RunTimeout),
// deterministic digest-seeded backoff, up to p.Retries re-attempts — and
// returns the final attempt's result, telemetry snapshot, wall time and
// 0-based attempt number. It is the fleet worker's building block: one
// leased cell, executed with exactly the semantics a local sweep would
// apply, with the lifecycle reporting left to the caller. Workers,
// Observer and Skip are ignored.
func RunOne(cfg inpg.Config, p Policy) (*inpg.Results, *metrics.Snapshot, float64, int, *RunError) {
	digest := cfg.Digest()
	var (
		res  *inpg.Results
		snap *metrics.Snapshot
		wall float64
		rerr *RunError
	)
	attempt := 0
	for ; attempt <= p.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(Backoff(digest, attempt, p.BackoffBase, p.BackoffMax))
		}
		// A lone run has no sweep index; RunError.Index is 0 and callers
		// relabel it with their own cell index.
		res, snap, wall, rerr = attemptOne(0, attempt, cfg, digest, p.RunTimeout, p.PreAttempt)
		if rerr == nil {
			break
		}
		p.logger().Warn("attempt failed",
			"digest", digest, "attempt", attempt, "cause", string(rerr.Cause),
			"retries_left", p.Retries-attempt, "err", rerr.Err)
	}
	if attempt > p.Retries {
		attempt = p.Retries
	}
	return res, snap, wall, attempt, rerr
}

// RunResilient executes every configuration in keep-going mode: each cell
// runs under panic isolation and an optional per-attempt deadline, failed
// cells are retried up to p.Retries times with deterministic jittered
// backoff, and a cell that exhausts its attempts is quarantined rather
// than aborting the sweep. The returned slices are index-aligned with
// cfgs: results[i] is non-nil exactly when the cell succeeded (or was
// skipped and prefilled by the caller), errs[i] is the final typed
// failure of a quarantined cell.
//
// On a fault-free sweep RunResilient produces results identical to Run:
// retries never engage, deadlines never fire, and the simulations
// themselves are untouched single-threaded deterministic runs.
func RunResilient(cfgs []inpg.Config, p Policy) ([]*inpg.Results, []*RunError) {
	results := make([]*inpg.Results, len(cfgs))
	finalErrs := make([]*RunError, len(cfgs))
	loopErrs := forEachWorker(len(cfgs), p.Workers, true, func(worker, i int) error {
		cfg := cfgs[i]
		if p.PreRun != nil {
			cfg = p.PreRun(i, cfg)
		}
		if p.Skip != nil && p.Skip(i) {
			if p.Observer != nil {
				p.Observer(Outcome{Index: i, Worker: worker, Done: true,
					Status: StatusSkipped, Cfg: cfg})
			}
			return nil
		}
		digest := cfg.Digest()
		for attempt := 0; attempt <= p.Retries; attempt++ {
			if attempt > 0 {
				time.Sleep(Backoff(digest, attempt, p.BackoffBase, p.BackoffMax))
			}
			if p.Observer != nil {
				p.Observer(Outcome{Index: i, Worker: worker,
					Status: StatusRunning, Attempt: attempt, Cfg: cfg})
			}
			res, snap, wall, rerr := attemptOne(i, attempt, cfg, digest, p.RunTimeout, p.PreAttempt)
			status := StatusOK
			switch {
			case rerr != nil && attempt < p.Retries:
				status = StatusRetrying
			case rerr != nil && p.Retries > 0:
				status = StatusQuarantined
			case rerr != nil:
				status = StatusFailed
			}
			if rerr != nil {
				p.logger().Warn("attempt failed",
					"cell", i, "digest", digest, "attempt", attempt,
					"cause", string(rerr.Cause), "status", string(status),
					"err", rerr.Err)
			}
			if p.Observer != nil {
				var err error
				if rerr != nil {
					err = rerr
				}
				p.Observer(Outcome{Index: i, Worker: worker, Done: true,
					Status: status, Attempt: attempt, Cfg: cfg, Res: res,
					Err: err, Snapshot: snap, WallSeconds: wall})
			}
			if rerr == nil {
				// A success voids the errors of earlier attempts: the cell
				// recovered and must not be reported missing.
				results[i], finalErrs[i] = res, nil
				return nil
			}
			finalErrs[i] = rerr
		}
		return nil
	})
	// Safety net: a panic escaping the per-attempt isolation (e.g. from an
	// observer) still lands in the per-index vector.
	for i, err := range loopErrs {
		if err != nil && finalErrs[i] == nil {
			finalErrs[i] = err
			results[i] = nil
		}
	}
	return results, finalErrs
}
