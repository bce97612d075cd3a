package inpg_test

// Differential check for activity-driven scheduling: the engine's
// wake/sleep protocol and idle fast-forward are pure scheduling
// optimizations, so a full-protocol run must be bit-identical to the same
// run under the always-tick reference mode (Config.AlwaysTick) — same
// runtime, same per-thread phase breakdowns, same network statistics, and
// the same message-level event stream in the same order.

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"inpg"
	"inpg/internal/fault"
	"inpg/internal/trace"
)

// compatRun executes one configuration with full protocol tracing and
// returns the results plus the ordered message-level event stream.
func compatRun(t *testing.T, cfg inpg.Config, alwaysTick bool) (*inpg.Results, []trace.Event) {
	t.Helper()
	cfg.AlwaysTick = alwaysTick
	cfg.TraceCapacity = 1 << 19
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.Trace()
	if tr.Len() >= 1<<19 {
		t.Fatalf("trace overflowed its ring (%d events): enlarge TraceCapacity so delivery order is fully compared", tr.Len())
	}
	return res, tr.Events()
}

// TestActivitySchedulingMatchesAlwaysTick runs the full lock protocol —
// every lock kind, three seeds, big routers and priority arbitration
// deployed — under both engine modes and asserts identical cycle counts,
// statistics and packet delivery order.
func TestActivitySchedulingMatchesAlwaysTick(t *testing.T) {
	for _, lk := range inpg.LockKinds {
		for _, seed := range []int64{1, 7, 1009} {
			lk, seed := lk, seed
			t.Run(lk.String(), func(t *testing.T) {
				cfg := inpg.DefaultConfig()
				cfg.Lock = lk
				cfg.Mechanism = inpg.INPGOCOR
				cfg.CSPerThread = 2
				cfg.Seed = seed

				active, activeEvents := compatRun(t, cfg, false)
				compat, compatEvents := compatRun(t, cfg, true)

				if active.Runtime != compat.Runtime {
					t.Fatalf("seed %d: runtime %d under activity scheduling, %d under always-tick",
						seed, active.Runtime, compat.Runtime)
				}
				if !reflect.DeepEqual(active, compat) {
					t.Fatalf("seed %d: results diverge:\nactivity:    %+v\nalways-tick: %+v",
						seed, active, compat)
				}
				if len(activeEvents) != len(compatEvents) {
					t.Fatalf("seed %d: %d trace events under activity scheduling, %d under always-tick",
						seed, len(activeEvents), len(compatEvents))
				}
				for i := range activeEvents {
					if activeEvents[i] != compatEvents[i] {
						t.Fatalf("seed %d: event %d diverges:\nactivity:    %+v\nalways-tick: %+v",
							seed, i, activeEvents[i], compatEvents[i])
					}
				}
			})
		}
	}
}

// TestActivitySchedulingMatchesAlwaysTickOriginal covers the baseline
// mechanism (no interceptors) for one lock, so the wake protocol is
// validated on the pure router/NI/protocol path as well.
func TestActivitySchedulingMatchesAlwaysTickOriginal(t *testing.T) {
	cfg := inpg.DefaultConfig()
	cfg.Lock = inpg.LockQSL
	cfg.Mechanism = inpg.Original
	cfg.CSPerThread = 2
	cfg.Seed = 3

	active, activeEvents := compatRun(t, cfg, false)
	compat, compatEvents := compatRun(t, cfg, true)
	if !reflect.DeepEqual(active, compat) {
		t.Fatalf("results diverge:\nactivity:    %+v\nalways-tick: %+v", active, compat)
	}
	if !reflect.DeepEqual(activeEvents, compatEvents) {
		t.Fatal("trace event streams diverge")
	}
}

// TestActivitySchedulingMatchesAlwaysTickLargeMesh repeats the
// differential on a 16×16 mesh, whose 512 tickers span eight words of the
// engine's tick set, so wakes crossing word boundaries are exercised by
// the real router/NI/protocol traffic.
func TestActivitySchedulingMatchesAlwaysTickLargeMesh(t *testing.T) {
	for _, lk := range []inpg.LockKind{inpg.LockTTL, inpg.LockQSL} {
		t.Run(lk.String(), func(t *testing.T) {
			cfg := inpg.DefaultConfig()
			cfg.MeshWidth, cfg.MeshHeight = 16, 16
			cfg.Threads = 64
			cfg.Lock = lk
			cfg.Mechanism = inpg.INPGOCOR
			cfg.CSPerThread = 1
			cfg.CSCycles, cfg.CSJitter = 50, 15
			cfg.ParallelCycles, cfg.ParallelJitter = 500, 125
			cfg.Seed = 3

			active, activeEvents := compatRun(t, cfg, false)
			compat, compatEvents := compatRun(t, cfg, true)
			if !reflect.DeepEqual(active, compat) {
				t.Fatalf("results diverge:\nactivity:    %+v\nalways-tick: %+v", active, compat)
			}
			if !reflect.DeepEqual(activeEvents, compatEvents) {
				t.Fatal("trace event streams diverge")
			}
		})
	}
}

// TestShardedRunMatchesCompatMode pins the deprecated shard knob: the
// sharded engine is gone, and a configuration that still sets Shards the
// way older callers did (AutoShards, or an explicit 1) must run the one
// engine and stay bit-identical to the default run and to the always-tick
// reference scheduler.
func TestShardedRunMatchesCompatMode(t *testing.T) {
	cfg := inpg.DefaultConfig()
	cfg.Lock = inpg.LockMCS
	cfg.Mechanism = inpg.INPGOCOR
	cfg.CSPerThread = 2
	cfg.Seed = 7
	cfg.Fault = fault.AtRate(0.001, 42)

	base, baseEvents := compatRun(t, cfg, false)
	for _, shards := range []int{1, inpg.AutoShards(cfg.MeshWidth, cfg.MeshHeight)} {
		for _, alwaysTick := range []bool{false, true} {
			c := cfg
			c.Shards = shards
			res, events := compatRun(t, c, alwaysTick)
			if !reflect.DeepEqual(res, base) {
				t.Fatalf("Shards=%d alwaysTick=%v: results diverge:\ngot:  %+v\nbase: %+v", shards, alwaysTick, res, base)
			}
			if !reflect.DeepEqual(events, baseEvents) {
				t.Fatalf("Shards=%d alwaysTick=%v: trace event streams diverge", shards, alwaysTick)
			}
		}
	}
}

// TestShardedTeardownLeaksNoGoroutines runs a configuration that still
// sets the deprecated shard knob to completion and to a wall-clock
// timeout, and requires no goroutine to outlive either run.
func TestShardedTeardownLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	wait := func(label string) {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines live, started with %d — the run leaked goroutines", label, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}

	cfg := inpg.DefaultConfig()
	cfg.Lock = inpg.LockQSL
	cfg.Mechanism = inpg.INPG
	cfg.CSPerThread = 2
	cfg.Seed = 5
	cfg.Shards = inpg.AutoShards(cfg.MeshWidth, cfg.MeshHeight)
	cfg.WallTimeBudget = time.Nanosecond // unmeetable: the run must time out
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err == nil {
		t.Fatal("a nanosecond wall budget should have timed the run out")
	}
	wait("timeout abort")

	cfg.WallTimeBudget = 0
	sys, err = inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	wait("clean completion")
}
