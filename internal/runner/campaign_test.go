package runner

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inpg"
)

// longConfig returns a run guaranteed to cross the engine's first
// cooperative abort check (cycle 4096) before finishing, so a tight
// wall-clock deadline reliably trips.
func longConfig(seed int64) inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 2, 2
	cfg.Threads = 4
	cfg.CSPerThread = 8
	cfg.CSCycles = 100
	cfg.ParallelCycles = 2000
	cfg.Seed = seed
	return cfg
}

func TestForEachAllKeepGoingIsolatesPanics(t *testing.T) {
	var ran atomic.Int64
	errs := forEachWorker(6, 2, true, func(_, i int) error {
		ran.Add(1)
		switch i {
		case 2:
			panic("chaos")
		case 4:
			return errors.New("plain failure")
		}
		return nil
	})
	if got := ran.Load(); got != 6 {
		t.Fatalf("ran %d of 6 indexes: keep-going mode must execute all", got)
	}
	if errs[2] == nil || errs[2].Cause != CausePanic {
		t.Fatalf("errs[2] = %v, want a CausePanic RunError", errs[2])
	}
	if len(errs[2].Stack) == 0 {
		t.Fatal("panic RunError must carry the recovered stack")
	}
	if !strings.Contains(errs[2].Error(), "panic") || !strings.Contains(errs[2].Error(), "run 2") {
		t.Fatalf("panic error text = %q", errs[2].Error())
	}
	if errs[4] == nil || errs[4].Cause != CauseError {
		t.Fatalf("errs[4] = %v, want a CauseError RunError", errs[4])
	}
	for _, i := range []int{0, 1, 3, 5} {
		if errs[i] != nil {
			t.Fatalf("clean index %d has error %v", i, errs[i])
		}
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	if Backoff("abc", 0, 0, 0) != 0 {
		t.Fatal("attempt 0 (the first try) must not wait")
	}
	if a, b := Backoff("abc", 3, 0, 0), Backoff("abc", 3, 0, 0); a != b {
		t.Fatalf("same (digest, attempt) gave %v then %v: backoff must be deterministic", a, b)
	}
	// Exponential growth with jitter in [0.5, 1.5): each attempt's delay
	// stays within those factors of base<<(attempt-1) until the cap binds.
	base, max := 10*time.Millisecond, time.Hour
	prev := time.Duration(0)
	for attempt := 1; attempt <= 6; attempt++ {
		raw := base << uint(attempt-1)
		d := Backoff("abc", attempt, base, max)
		if d < raw/2 || d >= raw+raw/2 {
			t.Fatalf("attempt %d delay %v outside jitter bounds [%v, %v)", attempt, d, raw/2, raw+raw/2)
		}
		if d <= prev/2 {
			t.Fatalf("attempt %d delay %v did not grow from %v", attempt, d, prev)
		}
		prev = d
	}
	// The cap binds arbitrarily deep schedules, including shift overflow
	// territory.
	for _, attempt := range []int{8, 21, 1000} {
		if d := Backoff("abc", attempt, base, 50*time.Millisecond); d > 50*time.Millisecond {
			t.Fatalf("attempt %d delay %v exceeds the 50ms cap", attempt, d)
		}
	}
	// Different cells decorrelate: distinct digests jitter differently.
	if Backoff("abc", 1, base, max) == Backoff("xyz", 1, base, max) {
		t.Fatal("digests abc and xyz produced identical jitter")
	}
}

func TestRunResilientTimeoutCarriesDiagnostics(t *testing.T) {
	before := runtime.NumGoroutine()
	results, errs := RunResilient([]inpg.Config{longConfig(1)}, Policy{
		Workers:    1,
		RunTimeout: time.Nanosecond,
	})
	if results[0] != nil {
		t.Fatal("timed-out run must not produce results")
	}
	rerr := errs[0]
	if rerr == nil || rerr.Cause != CauseTimeout {
		t.Fatalf("error = %v, want CauseTimeout", rerr)
	}
	var simErr *inpg.SimulationError
	if !errors.As(rerr, &simErr) {
		t.Fatalf("error %v does not unwrap to *inpg.SimulationError", rerr)
	}
	if simErr.Diag == nil {
		t.Fatal("timeout SimulationError must carry full Diagnostics")
	}
	if simErr.Threads == 0 || simErr.Unfinished == 0 || len(simErr.Diag.Threads) == 0 {
		t.Fatalf("diagnosis empty: %d/%d unfinished, %d thread dumps",
			simErr.Unfinished, simErr.Threads, len(simErr.Diag.Threads))
	}
	// The deadline machinery (context timer, worker goroutines) must not
	// leak; poll because timer teardown is asynchronous.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// outcomeLog is a concurrency-safe observer recording completion outcomes.
type outcomeLog struct {
	mu   sync.Mutex
	done []Outcome
}

func (l *outcomeLog) observer() Observer {
	return func(o Outcome) {
		if !o.Done {
			return
		}
		l.mu.Lock()
		l.done = append(l.done, o)
		l.mu.Unlock()
	}
}

func TestRunResilientRetryThenSucceed(t *testing.T) {
	log := &outcomeLog{}
	results, errs := RunResilient([]inpg.Config{longConfig(2)}, Policy{
		Workers:     1,
		Retries:     2,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Observer:    log.observer(),
		PreAttempt: func(_, attempt int) {
			if attempt == 0 {
				panic("transient chaos on the first attempt")
			}
		},
	})
	if results[0] == nil || errs[0] != nil {
		t.Fatalf("retry did not recover: results=%v errs=%v", results[0], errs[0])
	}
	var statuses []Status
	var attempts []int
	for _, o := range log.done {
		statuses = append(statuses, o.Status)
		attempts = append(attempts, o.Attempt)
	}
	if !reflect.DeepEqual(statuses, []Status{StatusRetrying, StatusOK}) {
		t.Fatalf("completion statuses = %v, want [retrying ok]", statuses)
	}
	if !reflect.DeepEqual(attempts, []int{0, 1}) {
		t.Fatalf("attempts = %v, want [0 1]", attempts)
	}
}

func TestRunResilientQuarantineAfterRetries(t *testing.T) {
	log := &outcomeLog{}
	results, errs := RunResilient([]inpg.Config{longConfig(3)}, Policy{
		Workers:     1,
		Retries:     1,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		Observer:    log.observer(),
		PreAttempt:  func(i, attempt int) { panic("persistent chaos") },
	})
	if results[0] != nil {
		t.Fatal("quarantined cell must not produce results")
	}
	rerr := errs[0]
	if rerr == nil || rerr.Cause != CausePanic || rerr.Attempt != 1 {
		t.Fatalf("final error = %+v, want CausePanic on attempt 1", rerr)
	}
	if rerr.Digest == "" {
		t.Fatal("quarantine error must carry the config digest")
	}
	var statuses []Status
	for _, o := range log.done {
		statuses = append(statuses, o.Status)
	}
	if !reflect.DeepEqual(statuses, []Status{StatusRetrying, StatusQuarantined}) {
		t.Fatalf("completion statuses = %v, want [retrying quarantined]", statuses)
	}
}

func TestRunResilientSkip(t *testing.T) {
	log := &outcomeLog{}
	cfgs := []inpg.Config{tinyConfig(2, 1), tinyConfig(2, 2)}
	results, errs := RunResilient(cfgs, Policy{
		Workers:  1,
		Observer: log.observer(),
		Skip:     func(i int) bool { return i == 0 },
	})
	if results[0] != nil || errs[0] != nil {
		t.Fatal("skipped cell must stay empty for the caller to prefill")
	}
	if results[1] == nil || errs[1] != nil {
		t.Fatalf("unskipped cell failed: %v", errs[1])
	}
	if len(log.done) != 2 || log.done[0].Status != StatusSkipped || log.done[0].Index != 0 {
		t.Fatalf("outcomes = %+v, want a StatusSkipped for index 0 first", log.done)
	}
}

// TestRunResilientMatchesRunOnCleanSweep pins the fault-free guarantee:
// with no failures, the resilient path (retries armed and all) produces
// results bit-identical to the fail-fast runner at any worker count.
func TestRunResilientMatchesRunOnCleanSweep(t *testing.T) {
	var cfgs []inpg.Config
	for i := 0; i < 4; i++ {
		cfgs = append(cfgs, tinyConfig(3, int64(i+1)))
	}
	ref, err := Run(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		results, errs := RunResilient(cfgs, Policy{Workers: workers, Retries: 2})
		for i := range cfgs {
			if errs[i] != nil {
				t.Fatalf("workers=%d: clean run %d failed: %v", workers, i, errs[i])
			}
			if !reflect.DeepEqual(results[i], ref[i]) {
				t.Fatalf("workers=%d: run %d differs from fail-fast runner:\n%+v\nvs\n%+v",
					workers, i, results[i], ref[i])
			}
		}
	}
}

func TestRunOneSingleCellBuildingBlock(t *testing.T) {
	// A clean cell succeeds on the first attempt and matches what the
	// full campaign machinery produces for the same configuration.
	cfg := longConfig(9)
	res, _, wall, attempt, rerr := RunOne(cfg, Policy{})
	if rerr != nil {
		t.Fatalf("clean run failed: %v", rerr)
	}
	if res == nil || attempt != 0 || wall < 0 {
		t.Fatalf("res=%v attempt=%d wall=%v", res, attempt, wall)
	}
	ref, errs := RunResilient([]inpg.Config{cfg}, Policy{Workers: 1})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if !reflect.DeepEqual(res, ref[0]) {
		t.Fatal("RunOne and RunResilient disagree on the same cell")
	}

	// A chaos hook that panics on the first two attempts is absorbed by
	// the retry loop; the third attempt lands.
	res, _, _, attempt, rerr = RunOne(cfg, Policy{
		Retries:     2,
		BackoffBase: time.Microsecond,
		BackoffMax:  time.Microsecond,
		PreAttempt: func(_, attempt int) {
			if attempt < 2 {
				panic("chaos")
			}
		},
	})
	if rerr != nil || res == nil || attempt != 2 {
		t.Fatalf("after 2 injected panics: res=%v attempt=%d err=%v", res, attempt, rerr)
	}

	// A config inpg.New rejects burns every retry, classifies as
	// CauseConfig, and reports the last attempt number.
	bad := cfg
	bad.MeshWidth = 0
	res, _, _, attempt, rerr = RunOne(bad, Policy{
		Retries:     1,
		BackoffBase: time.Microsecond,
		BackoffMax:  time.Microsecond,
	})
	if res != nil || rerr == nil || rerr.Cause != CauseConfig || attempt != 1 {
		t.Fatalf("bad config: res=%v attempt=%d err=%v", res, attempt, rerr)
	}
}
