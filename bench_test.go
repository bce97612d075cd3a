package inpg_test

// One benchmark per table/figure of the paper's evaluation (DESIGN.md §3).
// Each bench regenerates its figure at reduced scale and reports the
// figure's headline quantities as custom metrics, so `go test -bench=.`
// doubles as a quick reproduction pass. cmd/inpgbench produces the
// full-size tables.

import (
	"sync"
	"testing"

	"inpg"
	"inpg/internal/experiments"
)

// benchOpts shrinks runs to benchmark-friendly sizes.
func benchOpts() experiments.Options {
	o := experiments.DefaultOptions()
	o.Quick = true
	return o
}

// BenchmarkTable1PlatformBuild measures construction of the full Table 1
// platform (64 routers, NIs, L1s, directories, memory controllers).
func BenchmarkTable1PlatformBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := inpg.DefaultConfig()
		if _, err := inpg.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeMeshPlatformBuild measures construction of the 32×32
// BenchmarkSimulatorLargeMesh QSL platform with 256 threads: 1024 nodes
// of which only a quarter run threads, so per-node state built but never
// used shows here as a setup regression.
func BenchmarkLargeMeshPlatformBuild(b *testing.B) {
	b.ReportAllocs()
	cfg := largeMeshConfig(32, inpg.LockQSL, 500)
	cfg.Threads = 256
	for i := 0; i < b.N; i++ {
		if _, err := inpg.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2LCOPercent regenerates Figure 2 (LCO share per primitive)
// for one program and reports the TAS and MCS percentages — the two ends
// of the paper's ordering.
func BenchmarkFig2LCOPercent(b *testing.B) {
	o := benchOpts()
	var tas, mcs float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(o)
		if err != nil {
			b.Fatal(err)
		}
		tas = r.LCOPercent[0][0]
		mcs = r.LCOPercent[0][3]
	}
	b.ReportMetric(tas, "LCO%/TAS")
	b.ReportMetric(mcs, "LCO%/MCS")
}

// BenchmarkFig7ChipModel regenerates the synthesis summary (pure
// arithmetic; exists so every figure has a bench target).
func BenchmarkFig7ChipModel(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		overhead = experiments.Fig7().PacketGenOverhead
	}
	b.ReportMetric(100*overhead, "pktgen-power-%")
}

// BenchmarkFig8CSCharacteristics runs the benchmark characterization for
// the three Figure 2 programs' group representatives.
func BenchmarkFig8CSCharacteristics(b *testing.B) {
	o := benchOpts()
	var coh float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(o)
		if err != nil {
			b.Fatal(err)
		}
		coh = r.Rows[len(r.Rows)-1].COHShare()
	}
	b.ReportMetric(100*coh, "COH-share-%/heaviest")
}

// BenchmarkFig9Timeline regenerates the freqmine execution profile and
// reports iNPG+OCOR's progress over Original.
func BenchmarkFig9Timeline(b *testing.B) {
	o := benchOpts()
	var progress float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(o)
		if err != nil {
			b.Fatal(err)
		}
		progress = r.Cases[3].ProgressVsOriginal
	}
	b.ReportMetric(progress, "progress-x/iNPG+OCOR")
}

// BenchmarkFig10RoundTrip regenerates the Inv-Ack round-trip comparison
// and reports the paper's headline: mean RTT for Original vs iNPG.
func BenchmarkFig10RoundTrip(b *testing.B) {
	o := benchOpts()
	var orig, with float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(o)
		if err != nil {
			b.Fatal(err)
		}
		orig = r.Cases[0].MeanRTT
		with = r.Cases[1].MeanRTT
	}
	b.ReportMetric(orig, "rtt/Original")
	b.ReportMetric(with, "rtt/iNPG")
}

// benchSuite caches the shared Figure 11/12 sweep across both benches.
// The sync.Once keeps the lazy fill safe if the benches ever run from
// concurrent goroutines (and under -race).
var (
	benchSuiteOnce  sync.Once
	benchSuiteCache *experiments.SuiteResult
	benchSuiteErr   error
)

func benchSuite(b *testing.B) *experiments.SuiteResult {
	b.Helper()
	benchSuiteOnce.Do(func() {
		benchSuiteCache, benchSuiteErr = experiments.RunSuite(benchOpts())
	})
	if benchSuiteErr != nil {
		b.Fatal(benchSuiteErr)
	}
	return benchSuiteCache
}

// BenchmarkFig11CSExpedition reports mean CS expedition per mechanism.
func BenchmarkFig11CSExpedition(b *testing.B) {
	var ocor, inpgx float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		ocor = s.GroupMeanExpedition(0, 1)
		inpgx = s.GroupMeanExpedition(0, 2)
	}
	b.ReportMetric(ocor, "cs-x/OCOR")
	b.ReportMetric(inpgx, "cs-x/iNPG")
}

// BenchmarkFig12ROIFinishTime reports mean normalized ROI finish time.
func BenchmarkFig12ROIFinishTime(b *testing.B) {
	var ocor, inpgx float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		ocor = s.GroupMeanROI(0, 1)
		inpgx = s.GroupMeanROI(0, 2)
	}
	b.ReportMetric(ocor, "roi-%/OCOR")
	b.ReportMetric(inpgx, "roi-%/iNPG")
}

// BenchmarkFig13LockPrimitives reports iNPG's mean ROI reduction for the
// extreme primitives (TAS and MCS).
func BenchmarkFig13LockPrimitives(b *testing.B) {
	o := benchOpts()
	var tas, mcs float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(o, false)
		if err != nil {
			b.Fatal(err)
		}
		tas = r.MeanReductionPct[0]
		mcs = r.MeanReductionPct[3]
	}
	b.ReportMetric(tas, "roi-red-%/TAS")
	b.ReportMetric(mcs, "roi-red-%/MCS")
}

// BenchmarkFig14Deployment reports CS expedition at 32 big routers.
func BenchmarkFig14Deployment(b *testing.B) {
	o := benchOpts()
	var at32 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(o)
		if err != nil {
			b.Fatal(err)
		}
		at32 = r.Mean[3]
	}
	b.ReportMetric(at32, "cs-x/32BR")
}

// BenchmarkFig15Sensitivity reports iNPG's ROI reduction on the default
// 8×8/16-entry configuration cell of the sensitivity matrix.
func BenchmarkFig15Sensitivity(b *testing.B) {
	o := benchOpts()
	var cell float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(o)
		if err != nil {
			b.Fatal(err)
		}
		cell = r.Reduction[2][1] // 8×8, 16 entries
	}
	b.ReportMetric(cell, "roi-red-%/8x8-16e")
}

// throughputConfig is BenchmarkSimulatorThroughput's run: the contended
// Table 1 platform under QSL.
func throughputConfig(seed int64) inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.CSPerThread = 3
	cfg.CSCycles = 100
	cfg.ParallelCycles = 1500
	cfg.Seed = seed
	return cfg
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// cycles per second on the contended Table 1 platform.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		sys, err := inpg.New(throughputConfig(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Runtime
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/run")
}

// TestSimulatorThroughputAllocBudget pins the allocation diet of the
// protocol hot path and of per-node state: building and running
// BenchmarkSimulatorThroughput's seed-1 simulation stays within 2,600
// heap allocations and 600 KB. It took 43.6k allocations when every
// message, miss, poll and fixed-latency event allocated, and about 2.8k
// in 1.00 MB while every L1 allocated its whole line array on first fill.
func TestSimulatorThroughputAllocBudget(t *testing.T) {
	const budget, byteBudget = 2_600, 600_000
	var err error
	bytes, allocs := heapCost(func() {
		var sys *inpg.System
		if sys, err = inpg.New(throughputConfig(1)); err == nil {
			_, err = sys.Run()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > budget {
		t.Errorf("New+Run allocated %d times, budget %d", allocs, budget)
	}
	if bytes > byteBudget {
		t.Errorf("New+Run allocated %.3f MB, budget %.3f MB", float64(bytes)/1e6, float64(byteBudget)/1e6)
	}
	t.Logf("New+Run: %d allocations, %.3f MB", allocs, float64(bytes)/1e6)
}

// BenchmarkSimulatorThroughputJourney prices what observability adds on
// top of BenchmarkSimulatorThroughput's exact workload: "metrics" pays
// for the telemetry registry alone (the tracer's prerequisite), and
// "journey" additionally sets JourneyRate 1 — every acquisition carries
// a full per-stage journey record, the worst case for the sampling
// knob. At equal b.N the sim-cycles/run metric matches the untraced
// benchmark bit-for-bit: tracing observes, never perturbs.
func BenchmarkSimulatorThroughputJourney(b *testing.B) {
	for _, v := range []struct {
		name string
		rate float64
	}{{"metrics", 0}, {"journey", 1}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := inpg.DefaultConfig()
				cfg.CSPerThread = 3
				cfg.CSCycles = 100
				cfg.ParallelCycles = 1500
				cfg.Seed = int64(i + 1)
				cfg.Metrics = true
				cfg.JourneyRate = v.rate
				sys, err := inpg.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sys.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Runtime
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/run")
		})
	}
}

// BenchmarkSimulatorIdleHeavy measures simulation speed on an idle-heavy
// workload: TTL (whose waiters back off proportionally to queue distance)
// with long parallel phases, so for most of the run the chip is quiescent —
// every thread is parked on a scheduled event and no router or NI has work.
// This is the shape of the paper's high-contention/high-backoff scenarios,
// and the workload where activity-driven scheduling pays off most: an
// always-tick engine burns a full 128-component tick pass on every one of
// those empty cycles.
func BenchmarkSimulatorIdleHeavy(b *testing.B) {
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := inpg.DefaultConfig()
		cfg.Lock = inpg.LockTTL
		cfg.CSPerThread = 3
		cfg.CSCycles = 50
		cfg.CSJitter = 15
		cfg.ParallelCycles = 30_000
		cfg.ParallelJitter = 5_000
		cfg.Seed = int64(i + 1)
		sys, err := inpg.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Runtime
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/run")
}

// largeMeshConfig is the BenchmarkSimulatorLargeMesh workload: the full
// iNPG+OCOR protocol on a dim×dim mesh. Contended TTL (every thread
// spinning on one lock with distance-scaled backoff) keeps most routers
// awake most cycles. The seed is fixed, so sim-cycles/run is a witness
// that the same simulation ran.
func largeMeshConfig(dim int, lk inpg.LockKind, parallel int) inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = dim, dim
	cfg.Mechanism = inpg.INPGOCOR
	cfg.Lock = lk
	cfg.CSPerThread = 1
	cfg.CSCycles = 50
	cfg.CSJitter = 15
	cfg.ParallelCycles = parallel
	cfg.ParallelJitter = parallel / 4
	cfg.Seed = 1
	return cfg
}

// BenchmarkSimulatorLargeMesh measures large-mesh simulation speed:
// 16×16 and 32×32 contended TTL plus an activity-light 32×32 QSL case.
func BenchmarkSimulatorLargeMesh(b *testing.B) {
	cases := []struct {
		name     string
		dim      int
		lk       inpg.LockKind
		parallel int
	}{
		{"16x16-TTL-contended", 16, inpg.LockTTL, 2000},
		{"32x32-QSL", 32, inpg.LockQSL, 500},
		{"32x32-TTL-contended", 32, inpg.LockTTL, 20000},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				sys, err := inpg.New(largeMeshConfig(c.dim, c.lk, c.parallel))
				if err != nil {
					b.Fatal(err)
				}
				res, err := sys.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Runtime
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/run")
		})
	}
}

// BenchmarkAblationBarrierTTL runs the barrier-TTL ablation and reports
// the RTT at the paper's default TTL.
func BenchmarkAblationBarrierTTL(b *testing.B) {
	o := benchOpts()
	var rtt float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationBarrierTTL(o)
		if err != nil {
			b.Fatal(err)
		}
		rtt = r.Rows[2].RTTMean // ttl=128
	}
	b.ReportMetric(rtt, "rtt/ttl128")
}
