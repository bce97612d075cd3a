package inpg_test

import (
	"reflect"
	"sync"
	"testing"

	"inpg"
	"inpg/internal/experiments"
	"inpg/internal/fault"
	"inpg/internal/noc"
	"inpg/internal/runner"
	"inpg/internal/trace"
)

// meteredConfig is a small full-system run with telemetry enabled.
func meteredConfig(mech inpg.Mechanism, seed int64) inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.Mechanism = mech
	cfg.Lock = inpg.LockTAS
	cfg.CSPerThread = 3
	cfg.Seed = seed
	cfg.Metrics = true
	return cfg
}

// snapshotTexts runs cfgs through RunResilient, the path sweeps use, and
// collects each run's final counter snapshot from its observed outcome in
// canonical text form, by submission index.
func snapshotTexts(t *testing.T, cfgs []inpg.Config, workers int) []string {
	t.Helper()
	texts := make([]string, len(cfgs))
	var mu sync.Mutex
	_, errs := runner.RunResilient(cfgs, runner.Policy{Workers: workers, Observer: func(o runner.Outcome) {
		if !o.Done {
			return
		}
		if o.Snapshot == nil {
			t.Errorf("run %d: metered run produced no snapshot", o.Index)
			return
		}
		mu.Lock()
		texts[o.Index] = o.Snapshot.Text()
		mu.Unlock()
	}})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return texts
}

// Counter snapshots are byte-identical however many workers execute the
// sweep: each simulation is single-threaded and seeded, and the registry
// reads in sorted-name order.
func TestMetricsSnapshotsDeterministicAcrossWorkerCounts(t *testing.T) {
	var cfgs []inpg.Config
	for i, mech := range inpg.Mechanisms {
		cfgs = append(cfgs, meteredConfig(mech, int64(i+1)))
	}
	serial := snapshotTexts(t, cfgs, 1)
	parallel := snapshotTexts(t, cfgs, 4)
	for i := range cfgs {
		if serial[i] == "" {
			t.Fatalf("run %d produced no snapshot text", i)
		}
		if serial[i] != parallel[i] {
			t.Fatalf("run %d: snapshots differ between 1 and 4 workers\nserial:\n%s\nparallel:\n%s",
				i, serial[i], parallel[i])
		}
	}
}

// Snapshots are also byte-identical between the engine's activity-driven
// and always-tick scheduling modes.
func TestMetricsSnapshotsIdenticalAcrossCompatModes(t *testing.T) {
	run := func(alwaysTick bool) string {
		cfg := meteredConfig(inpg.INPGOCOR, 7)
		cfg.AlwaysTick = alwaysTick
		sys, err := inpg.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.MetricsSnapshot().Text()
	}
	active, compat := run(false), run(true)
	if active != compat {
		t.Fatalf("snapshots differ between scheduling modes\nactivity:\n%s\ncompat:\n%s", active, compat)
	}
}

// Enabling metrics — including the periodic sampler — must not perturb the
// simulation: results are identical field for field.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	for _, mech := range []inpg.Mechanism{inpg.Original, inpg.INPG} {
		base := meteredConfig(mech, 11)
		base.Metrics = false
		sys, err := inpg.New(base)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}

		metered := meteredConfig(mech, 11)
		metered.MetricsSampleEvery = 500
		sys2, err := inpg.New(metered)
		if err != nil {
			t.Fatal(err)
		}
		withMetrics, err := sys2.Run()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := inpg.Record(sys, plain), inpg.Record(sys2, withMetrics); !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: metrics perturbed the run\nplain:   %+v\nmetered: %+v", mech, a, b)
		}
		if sys2.MetricsSampler() == nil || len(sys2.MetricsSampler().Series) == 0 {
			t.Fatalf("%v: sampler collected no series", mech)
		}
	}
}

// Figure output stays byte-identical with metrics on: the registry only
// reads component stats, so tables cannot shift.
func TestFigureOutputIdenticalWithMetricsOn(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 2 sweep")
	}
	o := experiments.Options{Scale: 0.02, Seed: 42, Quick: true, Workers: 4}
	plain, err := experiments.Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Metrics = true
	metered, err := experiments.Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Render() != metered.Render() {
		t.Fatalf("Figure 2 output changed with metrics on\nplain:\n%s\nmetered:\n%s",
			plain.Render(), metered.Render())
	}
}

// The key snapshot counters cross-check the run's own results.
func TestMetricsSnapshotMatchesResults(t *testing.T) {
	cfg := meteredConfig(inpg.INPG, 3)
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.MetricsSnapshot()
	if v, _ := snap.Get("noc.injected"); v == 0 {
		t.Fatal("noc.injected = 0 after a full run")
	}
	if v, _ := snap.Get("l1.atomics"); v == 0 {
		t.Fatal("l1.atomics = 0 after a lock competition")
	}
	// Lock hold/handoff histograms recorded every critical section.
	var hold *uint64
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "lock.hold_cycles" {
			hold = &snap.Histograms[i].Count
		}
	}
	if hold == nil || *hold != uint64(res.CSCompleted) {
		t.Fatalf("lock.hold_cycles count = %v, want %d", hold, res.CSCompleted)
	}
}

// The hold/handoff ledger is kept per lock: with several locks, a handoff
// runs from one lock's release to that same lock's next acquire, so every
// critical section but each lock's first is the end of one.
func TestLockLedgerIsPerLock(t *testing.T) {
	for _, locks := range []int{1, 8} {
		cfg := inpg.DefaultConfig()
		cfg.CSPerThread = 4
		cfg.Seed = 7
		cfg.Metrics = true
		cfg.LockCount = locks
		sys, err := inpg.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]uint64{}
		for _, h := range sys.MetricsSnapshot().Histograms {
			counts[h.Name] = h.Count
		}
		cs := uint64(res.CSCompleted)
		if got := counts["lock.hold_cycles"]; got != cs {
			t.Errorf("%d locks: lock.hold_cycles count = %d, want CSCompleted %d", locks, got, cs)
		}
		if got, want := counts["lock.handoff_cycles"], cs-uint64(locks); got != want {
			t.Errorf("%d locks: lock.handoff_cycles count = %d, want CSCompleted - locks = %d", locks, got, want)
		}
	}
}

// A faulted, traced run records the link layer's retransmissions in the
// protocol trace, interleaved in nondecreasing cycle order.
func TestFaultedTraceRecordsLinkRetries(t *testing.T) {
	cfg := faultyConfig(1, 42)
	cfg.TraceCapacity = 1 << 16 // no AddrFilter: record all blocks
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	buf := sys.Trace()
	events := buf.Events()
	counts := trace.CountByKind(events)
	if counts[trace.LinkRetry] == 0 {
		t.Fatalf("no link-retry events traced with %d retries counted", res.LinkRetries)
	}
	// When the ring did not evict, the trace holds every retry the
	// results counted.
	if buf.Total == uint64(buf.Len()) && uint64(counts[trace.LinkRetry]) != res.LinkRetries {
		t.Fatalf("traced %d link retries, results count %d", counts[trace.LinkRetry], res.LinkRetries)
	}
	if counts[trace.LinkDead] != 0 {
		t.Fatalf("%d links died under transient faults", counts[trace.LinkDead])
	}
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("trace out of order at %d: %v after %v", i, events[i], events[i-1])
		}
	}
}

// A wedged run's trace shows the full link death sequence: every
// link-dead event is preceded by the bounded retries that exhausted it,
// at the same router, toward the same neighbor.
func TestWedgedTraceOrdersRetriesBeforeDeath(t *testing.T) {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.Lock = inpg.LockTAS
	cfg.CSPerThread = 2
	cfg.LockHomeNode = 10
	cfg.WatchdogWindow = 50_000
	cfg.MaxCycles = 50_000_000
	cfg.TraceCapacity = 1 << 16

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
	if _, err := sys.Run(); err == nil {
		t.Fatal("wedged run completed")
	}
	events := sys.Trace().Events()
	counts := trace.CountByKind(events)
	if counts[trace.LinkDead] == 0 {
		t.Fatal("no link-dead events traced in a wedged run")
	}
	// Ordering: before a node's link-dead event, that node must have
	// traced at least MaxRetries link-retry events.
	retriesByNode := map[noc.NodeID]int{}
	for _, e := range events {
		switch e.Kind {
		case trace.LinkRetry:
			retriesByNode[e.Node]++
		case trace.LinkDead:
			if retriesByNode[e.Node] < cfg.Fault.MaxRetries {
				t.Fatalf("link at node %d died after only %d traced retries (max %d):\n%s",
					e.Node, retriesByNode[e.Node], cfg.Fault.MaxRetries, e)
			}
		}
	}
}
