package inpg_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"inpg"
	"inpg/internal/fault"
	"inpg/internal/noc"
	"inpg/internal/runner"
	"inpg/internal/sim"
)

// faultyConfig is a small full-system run with moderate transient faults.
func faultyConfig(seed, faultSeed int64) inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.Lock = inpg.LockTAS
	cfg.CSPerThread = 3
	cfg.Seed = seed
	cfg.Fault = fault.AtRate(0.02, faultSeed)
	return cfg
}

// A run under moderate transient fault rates completes every thread's
// program: link-level retransmission fully absorbs the injected faults.
// The counters prove faults were actually injected and retried.
func TestFaultyRunCompletesWithRetries(t *testing.T) {
	sys, err := inpg.New(faultyConfig(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("run failed under 2%% fault rate: %v", err)
	}
	if res.CSCompleted != 16*3 {
		t.Fatalf("completed %d critical sections, want %d", res.CSCompleted, 16*3)
	}
	if res.FaultsInjected == 0 || res.LinkRetries == 0 {
		t.Fatalf("no faults recorded (injected=%d retries=%d) at 2%% rate", res.FaultsInjected, res.LinkRetries)
	}
	if res.LinkFailures != 0 {
		t.Fatalf("%d links died under transient faults", res.LinkFailures)
	}
}

// Fault-injected runs are byte-identical for a given (seed, fault seed)
// regardless of how many runner workers execute them: fault decisions are
// order-independent keyed hashes, and each simulation stays single-threaded.
func TestFaultedRunsDeterministicAcrossWorkerCounts(t *testing.T) {
	var cfgs []inpg.Config
	for i := 0; i < 6; i++ {
		cfgs = append(cfgs, faultyConfig(int64(i+1), int64(100+i)))
	}
	serial := runRecords(t, cfgs, 1)
	parallel := runRecords(t, cfgs, 8)
	results, errs := runner.RunResilient(cfgs, runner.Policy{Workers: 8})
	for i := range cfgs {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("run %d: records differ between 1 and 8 workers\nserial:   %+v\nparallel: %+v",
				i, serial[i], parallel[i])
		}
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], serial[i].Res) {
			t.Fatalf("run %d: RunResilient on 8 workers differs from the serial run\nserial:    %+v\nresilient: %+v",
				i, serial[i].Res, results[i])
		}
	}
}

// runRecords runs cfgs on at most workers goroutines and returns each
// run's record by submission index.
func runRecords(t *testing.T, cfgs []inpg.Config, workers int) []inpg.RunRecord {
	t.Helper()
	out := make([]inpg.RunRecord, len(cfgs))
	err := runner.ForEach(len(cfgs), workers, func(i int) error {
		sys, err := inpg.New(cfgs[i])
		if err != nil {
			return err
		}
		res, err := sys.Run()
		if err != nil {
			return err
		}
		out[i] = inpg.Record(sys, res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Faulted runs are also event-for-event identical between the two engine
// scheduling modes, extending the compat guarantee to nonzero fault rates.
func TestFaultedCompatModesMatch(t *testing.T) {
	cfg := faultyConfig(7, 99)
	active, activeEvents := compatRun(t, cfg, false)
	compat, compatEvents := compatRun(t, cfg, true)
	if !reflect.DeepEqual(active, compat) {
		t.Fatalf("faulted results differ between scheduling modes\nactivity: %+v\ncompat:   %+v", active, compat)
	}
	if len(activeEvents) != len(compatEvents) {
		t.Fatalf("event counts differ: %d vs %d", len(activeEvents), len(compatEvents))
	}
	for i := range activeEvents {
		if activeEvents[i] != compatEvents[i] {
			t.Fatalf("event %d differs:\nactivity: %+v\ncompat:   %+v", i, activeEvents[i], compatEvents[i])
		}
	}
}

// A deliberately wedged run — every port into the lock's home node
// permanently stalled, bounded retries exhausted — returns a
// *inpg.SimulationError from Run well before MaxCycles, whose Diagnostics
// names the dead links around the home router and the blocked threads.
func TestWedgedRunDiagnosedByWatchdog(t *testing.T) {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.Lock = inpg.LockTAS
	cfg.CSPerThread = 2
	cfg.LockHomeNode = 10
	cfg.WatchdogWindow = 50_000
	cfg.MaxCycles = 50_000_000

	// Kill every link into node 10: each neighbor's output port toward the
	// home drops all flits from cycle 1000 on (letting startup traffic warm
	// the caches first so the wedge hits mid-competition).
	mesh := noc.Mesh{Width: 4, Height: 4}
	home := noc.NodeID(10)
	for _, nb := range []noc.NodeID{6, 9, 11, 14} {
		cfg.Fault.PermanentStalls = append(cfg.Fault.PermanentStalls, fault.PortStall{
			Node: int(nb), Port: int(mesh.RouteXY(nb, home)), From: 1000,
		})
	}
	cfg.Fault.MaxRetries = 3
	cfg.Fault.RetryTimeout = 8

	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run()
	var simErr *inpg.SimulationError
	if !errors.As(err, &simErr) {
		t.Fatalf("err = %v, want *inpg.SimulationError", err)
	}
	if cause := runner.Classify(err); cause != runner.CauseStall {
		t.Fatalf("cause = %q, want %q", cause, runner.CauseStall)
	}
	var stall *sim.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("SimulationError does not unwrap to *sim.StallError: %v", err)
	}
	// Wedge at ~cycle 1000 + bounded retries, watchdog window 50k: the trip
	// must come orders of magnitude before the 50M cycle budget.
	if simErr.Cycle > 1_000_000 {
		t.Fatalf("diagnosed at cycle %d; expected well under 1M", simErr.Cycle)
	}
	if simErr.Unfinished == 0 {
		t.Fatal("no threads reported unfinished in a wedged run")
	}
	d := simErr.Diag
	if d == nil {
		t.Fatal("SimulationError carries no diagnostics")
	}
	dead := d.Net.DeadLinks()
	if len(dead) == 0 {
		t.Fatal("diagnostics name no dead links")
	}
	neighbors := map[int]bool{6: true, 9: true, 11: true, 14: true}
	for _, vc := range dead {
		if !neighbors[vc.Node] {
			t.Fatalf("dead link at unexpected router %d: %+v", vc.Node, vc)
		}
	}
	if len(d.Threads) == 0 {
		t.Fatal("diagnostics list no blocked threads")
	}
	dump := d.String()
	for _, want := range []string{"dead links", "unfinished threads", "LINK DEAD"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("diagnostics dump missing %q:\n%s", want, dump)
		}
	}
}

// At fault rate zero the new Results counters are zero, so rate-0 runs
// remain comparable (and byte-identical) to pre-fault-layer outputs.
func TestZeroFaultRateCountersZero(t *testing.T) {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.CSPerThread = 2
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsInjected != 0 || res.LinkRetries != 0 || res.LinkFailures != 0 || res.PortStallHits != 0 {
		t.Fatalf("fault counters nonzero at rate 0: %+v", res)
	}
}
