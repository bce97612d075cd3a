// Command inpgsim runs one iNPG simulation — or the same simulation over
// several seeds in parallel — and reports its results: phase breakdown,
// lock-coherence overhead, invalidation round trips, critical-section
// throughput and NoC energy. -json prints the run's inpg.Results, the
// record a run manifest stores as its summary. -trace adds the primary
// lock block's message-level protocol trace (packets, in-network stops,
// early invalidations, relayed acks, acquires and releases): where a
// SWAP was stopped and how its early invalidation overlapped the winner.
//
// Examples:
//
//	inpgsim -mech iNPG -lock TAS -cs 8 -parallel 2000
//	inpgsim -mesh 4 -mech Original -lock MCS -v
//	inpgsim -program kdtree -mech iNPG+OCOR
//	inpgsim -program kdtree -seeds 8 -workers 4   # seed sweep, 4 at a time
//	inpgsim -threads 8 -mech iNPG -lock TAS -cs 2 -cscyc 80 -parallel 150 -trace
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"inpg"
	"inpg/internal/experiments"
	"inpg/internal/fault"
	"inpg/internal/manifest"
	"inpg/internal/metrics"
	"inpg/internal/runner"
	"inpg/internal/trace"
	"inpg/internal/workload"
)

// The -trace window: it starts at the first lock acquire, skipping the
// cold start, and lasts traceWindow cycles; at most traceMaxEvents of its
// events are printed, and its totals count all of them.
const (
	traceWindow    = 600
	traceMaxEvents = 200
)

func main() {
	var (
		mechName = flag.String("mech", "Original", "mechanism: Original, OCOR, iNPG, iNPG+OCOR")
		lockName = flag.String("lock", "QSL", "lock primitive: TAS, TTL, ABQL, MCS, QSL")
		program  = flag.String("program", "", "workload profile name (overrides -cs/-cscyc/-parallel)")
		mesh     = flag.Int("mesh", 8, "mesh dimension (mesh x mesh cores)")
		threads  = flag.Int("threads", 0, "competing threads, one per core from node 0 (0 = one on every core)")
		cs       = flag.Int("cs", 8, "critical sections per thread")
		csCycles = flag.Int("cscyc", 100, "mean critical-section length in cycles")
		parallel = flag.Int("parallel", 2000, "mean parallel compute between CS in cycles")
		brs      = flag.Int("bigrouters", -1, "big routers for iNPG (-1 = half the nodes)")
		barrier  = flag.Int("barrier", 0, "locking barrier table entries (0 = default 16)")
		seed     = flag.Int64("seed", 1, "random seed")
		fRate    = flag.Float64("faultrate", 0, "combined transient link/port fault rate (0 = faults off)")
		fSeed    = flag.Int64("faultseed", 0, "fault injector seed (0 = derived from -seed)")
		wdog     = flag.Int64("watchdog", 0, "liveness watchdog window in cycles (0 = default, <0 = off)")
		wallTime = flag.Duration("walltime", 0, "wall-clock budget for the run (0 = none); an overrun fails with a timeout diagnosis")
		seeds    = flag.Int("seeds", 1, "run this many consecutive seeds and report the spread")
		workers  = flag.Int("workers", 0, "concurrent simulations for -seeds (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "print per-thread breakdown")
		asJSON   = flag.Bool("json", false, "emit the result summary as JSON")
		listProg = flag.Bool("list", false, "list workload profiles and exit")
		metricsF = flag.Bool("metrics", false, "enable the telemetry registry and print its final counter snapshot")
		mEvery   = flag.Int("metrics-every", 0, "sample the registry every N cycles (requires -metrics; feeds -trace-out counter tracks)")
		manDir   = flag.String("manifest", "", "write a JSON run manifest into this directory")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event/Perfetto .trace.json of the primary lock block to this file")
		showTr   = flag.Bool("trace", false, fmt.Sprintf("print the primary lock block's protocol trace after the summary: %d cycles from the first acquire, at most %d events, then the window's totals by kind", traceWindow, traceMaxEvents))
		jRate    = flag.Float64("journey-rate", 0, "fraction of lock acquisitions to journey-trace with per-stage latency attribution (0 = off; sampling never perturbs the run)")
	)
	flag.Parse()

	if *listProg {
		for _, p := range workload.Profiles() {
			fmt.Println(p)
		}
		return
	}

	mech, err := inpg.ParseMechanism(*mechName)
	fatal(err)
	lk, err := inpg.ParseLockKind(*lockName)
	fatal(err)

	var cfg inpg.Config
	if *program != "" {
		p, err := workload.ByName(*program)
		fatal(err)
		cfg = experiments.ConfigFor(p, mech, lk, experiments.Options{Scale: 0.05, Seed: *seed})
	} else {
		cfg = inpg.DefaultConfig()
		cfg.Mechanism = mech
		cfg.Lock = lk
		cfg.CSPerThread = *cs
		cfg.CSCycles = *csCycles
		cfg.CSJitter = *csCycles / 3
		cfg.ParallelCycles = *parallel
		cfg.ParallelJitter = *parallel / 4
		cfg.Seed = *seed
	}
	cfg.MeshWidth, cfg.MeshHeight = *mesh, *mesh
	cfg.Threads = *threads
	cfg.BigRouters = *brs
	cfg.BarrierEntries = *barrier
	cfg.WatchdogWindow = *wdog
	cfg.WallTimeBudget = *wallTime
	cfg.Metrics = *metricsF
	cfg.MetricsSampleEvery = *mEvery
	cfg.JourneyRate = *jRate
	if (*traceOut != "" || *showTr) && cfg.TraceCapacity == 0 {
		cfg.TraceCapacity = 1 << 16
		cfg.TraceAddr = inpg.PrimaryLockAddr(cfg)
	}
	if *fRate > 0 {
		fs := *fSeed
		if fs == 0 {
			fs = *seed ^ 0x66a0_17fa
		}
		cfg.Fault = fault.AtRate(*fRate, fs)
	}

	if *showTr && (*asJSON || *seeds > 1) {
		fatal(fmt.Errorf("-trace prints one run's text summary; drop -json and -seeds"))
	}
	if *seeds > 1 {
		if *asJSON {
			fatal(fmt.Errorf("-json reports a single run; drop -seeds"))
		}
		seedSweep(cfg, *seeds, *workers)
		return
	}

	sys, err := inpg.New(cfg)
	fatal(err)
	start := time.Now()
	res, runErr := sys.Run()
	// Artifacts are written even for failed runs: a manifest recording the
	// failure is exactly what a post-mortem wants.
	writeArtifacts(sys, cfg, res, runErr, time.Since(start).Seconds(), *manDir, *traceOut)
	if runErr != nil {
		// A failed run carries a full diagnosis: dump it before exiting so
		// the wedged state (dead links, stuck transactions, blocked
		// threads) is visible, not just the headline.
		var simErr *inpg.SimulationError
		if errors.As(runErr, &simErr) && simErr.Diag != nil {
			fmt.Fprint(os.Stderr, simErr.Diag.String())
		}
		fatal(runErr)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(res))
		return
	}

	fmt.Printf("mechanism      %s, lock %s, %dx%d mesh, %d threads\n",
		mech, lk, cfg.MeshWidth, cfg.MeshHeight, res.Threads)
	fmt.Printf("ROI runtime    %d cycles\n", res.Runtime)
	fmt.Printf("CS completed   %d\n", res.CSCompleted)
	total := float64(res.Parallel + res.COH + res.Sleep + res.CSE)
	if total > 0 {
		fmt.Printf("phase split    parallel %.1f%%  COH %.1f%% (sleep %.1f%%)  CSE %.1f%%\n",
			100*float64(res.Parallel)/total, 100*float64(res.COH+res.Sleep)/total,
			100*float64(res.Sleep)/total, 100*float64(res.CSE)/total)
	}
	fmt.Printf("LCO            %.1f%% of aggregate thread time\n", res.LCOPercent)
	fmt.Printf("Inv-Ack RTT    mean %.1f cycles, max %d (%d samples)\n", res.RTTMean, res.RTTMax, res.RTTSamples)
	fmt.Printf("net latency    %.1f cycles mean\n", res.NetMeanLatency)
	if res.Stopped > 0 {
		fmt.Printf("iNPG           %d lock requests stopped, %d early invalidations\n", res.Stopped, res.EarlyInvs)
	}
	if res.FaultsInjected > 0 || res.PortStallHits > 0 {
		fmt.Printf("faults         %d injected, %d retransmissions, %d links died, %d port stalls\n",
			res.FaultsInjected, res.LinkRetries, res.LinkFailures, res.PortStallHits)
	}
	fmt.Printf("NoC energy     %s\n", sys.Energy())
	if *verbose {
		fmt.Println("\nper-thread breakdown:")
		for _, t := range sys.Threads() {
			b := t.Breakdown
			fmt.Printf("  thread %2d: parallel %8d  coh %8d  sleep %8d  cse %7d  cs %d  sleeps %d\n",
				t.ID, b.Parallel, b.COH, b.Sleep, b.CSE, t.CSCompleted, t.SleepCount)
		}
	}
	if *metricsF {
		if snap := sys.MetricsSnapshot(); snap != nil {
			fmt.Printf("\ntelemetry counters:\n%s", snap.Text())
		}
	}
	if *showTr {
		fmt.Println()
		printTrace(os.Stdout, sys, cfg)
	}
}

// printTrace writes the -trace window of the primary lock block's
// protocol trace to w: a header giving the window's event count, at most
// traceMaxEvents of its events, then the whole window's event totals by
// kind.
func printTrace(w io.Writer, sys *inpg.System, cfg inpg.Config) {
	buf := sys.Trace()
	events := buf.Events()
	if len(events) == 0 {
		fmt.Fprintln(w, "no events traced for the lock block")
		return
	}
	start := events[0].Cycle
	for _, e := range events {
		if e.Kind == trace.LockAcquire {
			start = e.Cycle
			break
		}
	}
	end := start + traceWindow
	window := buf.Window(start, end)
	shown := window[:min(len(window), traceMaxEvents)]
	fmt.Fprintf(w, "lock block %#x (home node %d), %s over %s, %d threads\n",
		cfg.TraceAddr, sys.Fabric().Homes.Home(cfg.TraceAddr), cfg.Lock, cfg.Mechanism, len(sys.Threads()))
	fmt.Fprintf(w, "%d of %d traced events in window %d..%d", len(window), buf.Len(), start, end)
	if len(shown) < len(window) {
		fmt.Fprintf(w, "; showing the first %d, to cycle %d", len(shown), shown[len(shown)-1].Cycle)
	}
	fmt.Fprint(w, "\n\n", trace.Render(shown))

	fmt.Fprintln(w, "\nevent totals in window:")
	counts := trace.CountByKind(window)
	for kind := trace.PktInject; kind <= trace.LinkDead; kind++ {
		if n := counts[kind]; n > 0 {
			fmt.Fprintf(w, "  %-10s %d\n", kind, n)
		}
	}
}

// writeArtifacts emits the optional per-run outputs: a JSON manifest into
// manDir and a Chrome trace-event export to traceOut.
func writeArtifacts(sys *inpg.System, cfg inpg.Config, res *inpg.Results, runErr error, wall float64, manDir, traceOut string) {
	if manDir != "" {
		m := manifest.Build("single", 0, cfg, res, sys.MetricsSnapshot(), wall, runErr)
		path, err := m.WriteFile(manDir)
		fatal(err)
		fmt.Fprintf(os.Stderr, "[manifest: %s]\n", path)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		fatal(err)
		var events []trace.Event
		if buf := sys.Trace(); buf != nil {
			events = buf.Events()
		}
		fatal(metrics.WriteChromeTrace(f, events, sys.MetricsSampler(), sys.Journeys()))
		fatal(f.Close())
		fmt.Fprintf(os.Stderr, "[trace: %s]\n", traceOut)
	}
}

// seedSweep runs cfg under n consecutive seeds on the parallel runner and
// prints per-seed rows plus the mean and spread — the quick way to judge
// whether a single-seed difference is signal or noise. Every seed runs: a
// failed one prints a MISSING row, its error goes to stderr, it is left
// out of the mean, and the command exits 1 after the table.
func seedSweep(cfg inpg.Config, n, workers int) {
	cfgs := make([]inpg.Config, n)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = cfg.Seed + int64(i)
	}
	results, errs := runner.RunResilient(cfgs, runner.Policy{Workers: workers})

	fmt.Printf("mechanism      %s, lock %s, %dx%d mesh, seeds %d..%d, %d workers\n",
		cfg.Mechanism, cfg.Lock, cfg.MeshWidth, cfg.MeshHeight,
		cfg.Seed, cfg.Seed+int64(n-1), runner.Workers(workers))
	fmt.Printf("%6s %12s %8s %8s %10s\n", "seed", "runtime", "LCO%", "rtt", "earlyInv")
	var rtSum, rtMin, rtMax uint64
	var lcoSum float64
	ok := 0
	for i, res := range results {
		if errs[i] != nil {
			fmt.Printf("%6d MISSING(%s)\n", cfgs[i].Seed, errs[i].Cause)
			fmt.Fprintf(os.Stderr, "inpgsim: seed %d: %v\n", cfgs[i].Seed, errs[i].Err)
			continue
		}
		fmt.Printf("%6d %12d %7.1f%% %8.1f %10d\n",
			cfgs[i].Seed, res.Runtime, res.LCOPercent, res.RTTMean, res.EarlyInvs)
		rtSum += res.Runtime
		lcoSum += res.LCOPercent
		if ok == 0 || res.Runtime < rtMin {
			rtMin = res.Runtime
		}
		if res.Runtime > rtMax {
			rtMax = res.Runtime
		}
		ok++
	}
	if ok > 0 {
		mean := float64(rtSum) / float64(ok)
		fmt.Printf("mean runtime   %.0f cycles (min %d, max %d, spread %.1f%%)\n",
			mean, rtMin, rtMax, 100*float64(rtMax-rtMin)/mean)
		fmt.Printf("mean LCO       %.1f%%\n", lcoSum/float64(ok))
	}
	if ok < n {
		os.Exit(1)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "inpgsim:", err)
		os.Exit(1)
	}
}
