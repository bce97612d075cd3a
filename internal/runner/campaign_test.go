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
	errs := forEachWorker(6, 2, true, func(i int) error {
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

func TestRunResilientTimeoutCarriesDiagnostics(t *testing.T) {
	before := runtime.NumGoroutine()
	log := &outcomeLog{}
	cfg := longConfig(1)
	results, errs := RunResilient([]inpg.Config{cfg}, Policy{
		Workers:    1,
		RunTimeout: time.Nanosecond,
		Observer:   log.observer(),
	})
	if results[0] != nil {
		t.Fatal("timed-out run must not produce results")
	}
	rerr := errs[0]
	if rerr == nil || rerr.Cause != CauseTimeout || rerr.Digest != cfg.Digest() {
		t.Fatalf("error = %+v, want CauseTimeout under the config digest", rerr)
	}
	// The failed cell ran once: one completion, StatusFailed, carrying
	// the error.
	if len(log.done) != 1 || log.done[0].Status != StatusFailed || log.done[0].Err == nil {
		t.Fatalf("completions = %+v, want one StatusFailed with its error", log.done)
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
// with no failures, the resilient path produces results bit-identical to
// running each configuration in place, at any worker count.
func TestRunResilientMatchesRunOnCleanSweep(t *testing.T) {
	var cfgs []inpg.Config
	var ref []*inpg.Results
	for i := 0; i < 4; i++ {
		cfg := tinyConfig(3, int64(i+1))
		sys, err := inpg.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		cfgs, ref = append(cfgs, cfg), append(ref, res)
	}
	for _, workers := range []int{1, 4} {
		results, errs := RunResilient(cfgs, Policy{Workers: workers})
		for i := range cfgs {
			if errs[i] != nil {
				t.Fatalf("workers=%d: clean run %d failed: %v", workers, i, errs[i])
			}
			if !reflect.DeepEqual(results[i], ref[i]) {
				t.Fatalf("workers=%d: run %d differs from the in-place run:\n%+v\nvs\n%+v",
					workers, i, results[i], ref[i])
			}
		}
	}
}

func TestRunOneSingleCellBuildingBlock(t *testing.T) {
	// A clean cell succeeds and matches what the full campaign machinery
	// produces for the same configuration.
	cfg := longConfig(9)
	res, _, wall, rerr := RunOne(cfg, 0)
	if rerr != nil {
		t.Fatalf("clean run failed: %v", rerr)
	}
	if res == nil || wall < 0 {
		t.Fatalf("res=%v wall=%v", res, wall)
	}
	ref, errs := RunResilient([]inpg.Config{cfg}, Policy{Workers: 1})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if !reflect.DeepEqual(res, ref[0]) {
		t.Fatal("RunOne and RunResilient disagree on the same cell")
	}

	// A config inpg.New rejects classifies as CauseConfig and carries the
	// config digest.
	bad := cfg
	bad.MeshWidth = 0
	res, _, _, rerr = RunOne(bad, 0)
	if res != nil || rerr == nil || rerr.Cause != CauseConfig || rerr.Digest != bad.Digest() {
		t.Fatalf("bad config: res=%v err=%+v", res, rerr)
	}
}
