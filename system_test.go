package inpg

import (
	"strings"
	"testing"

	"inpg/internal/fault"
)

// contended returns a config with heavy lock contention: short parallel
// phases, every core competing, TAS for maximal GetX storms.
func contended() Config {
	cfg := DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.Lock = LockTAS
	cfg.CSPerThread = 4
	cfg.CSCycles = 60
	cfg.CSJitter = 20
	cfg.ParallelCycles = 100
	cfg.ParallelJitter = 50
	cfg.MaxCycles = 20_000_000
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Results {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Fabric().CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOriginalRunCompletes(t *testing.T) {
	cfg := contended()
	res := mustRun(t, cfg)
	if res.CSCompleted != 16*4 {
		t.Fatalf("CS completed = %d, want 64", res.CSCompleted)
	}
	if res.COHTotal() == 0 || res.CSE == 0 || res.Parallel == 0 {
		t.Fatalf("breakdown incomplete: %+v", res)
	}
	if res.LCOPercent <= 0 || res.LCOPercent >= 100 {
		t.Fatalf("LCO%% = %f out of range", res.LCOPercent)
	}
}

func TestINPGGeneratesEarlyInvalidations(t *testing.T) {
	cfg := contended()
	cfg.Mechanism = INPG
	res := mustRun(t, cfg)
	if res.CSCompleted != 64 {
		t.Fatalf("CS completed = %d, want 64", res.CSCompleted)
	}
	if res.Stopped == 0 || res.EarlyInvs == 0 {
		t.Fatalf("iNPG inactive: stopped=%d earlyInvs=%d", res.Stopped, res.EarlyInvs)
	}
}

// paperScale switches the contended config to the paper's 8×8 mesh, where
// iNPG's distance savings are substantial (Figure 15 shows marginal gains
// at small dimensions).
func paperScale(cfg Config) Config {
	cfg.MeshWidth, cfg.MeshHeight = 8, 8
	cfg.CSPerThread = 3
	return cfg
}

func TestINPGReducesRTT(t *testing.T) {
	cfg := paperScale(contended())
	orig := mustRun(t, cfg)
	cfg.Mechanism = INPG
	inpg := mustRun(t, cfg)
	if orig.RTTSamples == 0 || inpg.RTTSamples == 0 {
		t.Fatalf("no RTT samples: orig=%d inpg=%d", orig.RTTSamples, inpg.RTTSamples)
	}
	if inpg.RTTMean >= orig.RTTMean {
		t.Fatalf("iNPG mean RTT %.1f not below Original %.1f", inpg.RTTMean, orig.RTTMean)
	}
}

// TestINPGShortensInvAckPath checks the mechanism's first-order effect
// (the paper's Figure 10): under heavy TAS contention on the 8×8 mesh the
// mean invalidation–acknowledgement round trip must drop substantially,
// averaged over seeds. Runtime-level gains are regime-dependent (see
// EXPERIMENTS.md) and are asserted more loosely elsewhere.
func TestINPGShortensInvAckPath(t *testing.T) {
	var orig, with float64
	for _, seed := range []int64{1, 7, 23} {
		cfg := paperScale(contended())
		cfg.Seed = seed
		orig += mustRun(t, cfg).RTTMean
		cfg.Mechanism = INPG
		with += mustRun(t, cfg).RTTMean
	}
	if with >= 0.9*orig {
		t.Fatalf("iNPG mean RTT %.1f not well below Original %.1f", with/3, orig/3)
	}
}

func TestAllMechanismsAllLocksComplete(t *testing.T) {
	for _, mech := range Mechanisms {
		for _, lk := range LockKinds {
			mech, lk := mech, lk
			t.Run(mech.String()+"/"+lk.String(), func(t *testing.T) {
				cfg := contended()
				cfg.Mechanism = mech
				cfg.Lock = lk
				cfg.CSPerThread = 3
				cfg.QSLRetries = 24
				cfg.CtxSwitchCycles = 150
				cfg.WakeupCycles = 80
				res := mustRun(t, cfg)
				if res.CSCompleted != 48 {
					t.Fatalf("CS completed = %d, want 48", res.CSCompleted)
				}
			})
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := contended()
	cfg.Mechanism = INPGOCOR
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.Runtime != b.Runtime || a.CSCompleted != b.CSCompleted ||
		a.COH != b.COH || a.RTTMean != b.RTTMean || a.EarlyInvs != b.EarlyInvs {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := contended()
	a := mustRun(t, cfg)
	cfg.Seed = 999
	b := mustRun(t, cfg)
	if a.Runtime == b.Runtime && a.COH == b.COH {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestTimelineRecording(t *testing.T) {
	cfg := contended()
	cfg.RecordTimeline = true
	cfg.TimelineThreads = 8
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	tl := sys.Timeline()
	if tl == nil || len(tl.Events) == 0 {
		t.Fatal("timeline not recorded")
	}
	p, c, e, cs := tl.WindowBreakdown(0, sys.Engine().Now(), 8)
	if p == 0 || c == 0 || e == 0 || cs == 0 {
		t.Fatalf("window breakdown empty: %d %d %d %d", p, c, e, cs)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.MeshWidth = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero-width mesh accepted")
	}
	bad = DefaultConfig()
	bad.Threads = 1000
	if _, err := New(bad); err == nil {
		t.Fatal("too many threads accepted")
	}
	bad = DefaultConfig()
	bad.CSPerThread = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero CS accepted")
	}
	bad = DefaultConfig()
	bad.LockHomeNode = 4096
	if _, err := New(bad); err == nil {
		t.Fatal("out-of-mesh lock home accepted")
	}
}

// TestShardsConfigValidation covers the deprecated Shards field: 0 and 1
// run the single-threaded engine, every other count is rejected with an
// error naming the removed sharded engine, and the field stays out of the
// config digest.
func TestShardsConfigValidation(t *testing.T) {
	for _, shards := range []int{-1, 2, 8} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), "sharded engine was removed") {
			t.Fatalf("Shards=%d: err = %v, want the removed-engine error", shards, err)
		}
	}
	cfg := DefaultConfig()
	cfg.Shards = AutoShards(32, 32)
	if _, err := New(cfg); err != nil {
		t.Fatalf("Shards=AutoShards(32, 32) rejected: %v", err)
	}
	if cfg.Digest() != DefaultConfig().Digest() {
		t.Fatal("Shards must not contribute to the config digest")
	}
}

func TestParseHelpers(t *testing.T) {
	for _, m := range Mechanisms {
		got, err := ParseMechanism(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMechanism(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, k := range LockKinds {
		got, err := ParseLockKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseLockKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseMechanism("x"); err == nil {
		t.Fatal("bad mechanism accepted")
	}
}

func TestTraceCapturesLockProtocol(t *testing.T) {
	cfg := contended()
	cfg.Mechanism = INPG
	cfg.TraceCapacity = 1 << 14
	// Trace the primary lock block: home = mesh center (2,2) on 4×4 = 10.
	cfg.TraceAddr = 10 * 128
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	buf := sys.Trace()
	if buf == nil || buf.Len() == 0 {
		t.Fatal("trace empty")
	}
	counts := map[string]int{}
	for _, e := range buf.Events() {
		counts[e.Kind.String()]++
	}
	for _, want := range []string{"inject", "deliver", "acquire", "release", "stop", "early-inv", "ack-relay"} {
		if counts[want] == 0 {
			t.Fatalf("no %q events traced (have %v)", want, counts)
		}
	}
}

func TestEnergyAccounting(t *testing.T) {
	cfg := contended()
	orig := mustRun(t, cfg)
	if orig.Energy.TotalPJ <= 0 || orig.Energy.AvgRouterPowerMW <= 0 {
		t.Fatalf("no energy accounted: %+v", orig.Energy)
	}
	cfg.Mechanism = INPG
	with := mustRun(t, cfg)
	if with.Energy.GenerationPJ <= 0 {
		t.Fatal("iNPG run must account packet-generation energy")
	}
	if orig.Energy.GenerationPJ != 0 {
		t.Fatal("Original run must not account generation energy")
	}
}

func TestCLHExtensionFullSystem(t *testing.T) {
	cfg := contended()
	cfg.Lock = LockCLH
	res := mustRun(t, cfg)
	if res.CSCompleted != 16*4 {
		t.Fatalf("CLH completed %d CS, want 64", res.CSCompleted)
	}
}

func TestMultiLockWorkload(t *testing.T) {
	cfg := contended()
	cfg.LockCount = 4
	cfg.Mechanism = INPG
	res := mustRun(t, cfg)
	if res.CSCompleted != 64 {
		t.Fatalf("CS completed = %d, want 64", res.CSCompleted)
	}
	// With several concurrent hot locks, multiple barriers coexist.
	if res.Stopped == 0 {
		t.Fatal("iNPG idle under multi-lock contention")
	}
}

// TestQSLCompletesEachAcquireOnce replays the sleep-probe race across
// every mechanism, 40 seeds and four fault rates: a release wakes a
// sleeping QSL waiter whose post-enqueue probe swap is still in flight,
// and with one-cycle context switches and wakeups the waiter is back in
// before the swap returns. Exactly one of the probe and the resumed spin
// may complete the acquire, so every thread runs exactly CSPerThread
// critical sections.
func TestQSLCompletesEachAcquireOnce(t *testing.T) {
	for _, rate := range []float64{0, 0.01, 0.02, 0.05} {
		for _, mech := range Mechanisms {
			for seed := int64(1); seed <= 40; seed++ {
				cfg := DefaultConfig()
				cfg.MeshWidth, cfg.MeshHeight = 4, 4
				cfg.Lock = LockQSL
				cfg.Mechanism = mech
				cfg.LockCount = 3
				cfg.CtxSwitchCycles, cfg.WakeupCycles = 1, 1
				cfg.QSLRetries = 4
				cfg.CSPerThread = 3
				cfg.Seed = seed
				cfg.Fault = fault.AtRate(rate, seed)
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run()
				if err != nil {
					t.Errorf("%v seed %d fault rate %g: %v", mech, seed, rate, err)
					continue
				}
				for _, th := range res.PerThread {
					if th.CSCompleted != cfg.CSPerThread {
						t.Errorf("%v seed %d fault rate %g: thread %d completed %d critical sections, want %d",
							mech, seed, rate, th.ID, th.CSCompleted, cfg.CSPerThread)
					}
				}
				if want := res.Threads * cfg.CSPerThread; res.CSCompleted != want {
					t.Errorf("%v seed %d fault rate %g: %d critical sections, want %d", mech, seed, rate, res.CSCompleted, want)
				}
			}
		}
	}
}
