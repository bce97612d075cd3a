// Command inpgbench regenerates the paper's tables and figures. Each
// figure of the evaluation section has a runner in internal/experiments;
// this command executes the requested ones and prints paper-style tables.
//
// Examples:
//
//	inpgbench -fig t1          # Table 1 platform configuration
//	inpgbench -fig 10          # Figure 10 round-trip maps and histograms
//	inpgbench -fig 11,12       # the shared 24-program × 4-mechanism suite
//	inpgbench -all             # everything (several minutes)
//	inpgbench -all -quick      # reduced-size runs
//	inpgbench -fig res,lat     # fault resilience and lock-latency breakdown
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"inpg/internal/experiments"
	"inpg/internal/fleet"
	"inpg/internal/runner"
)

// runWorker serves a coordinator until it orders shutdown. SIGTERM (or
// the first interrupt) drains gracefully — the leased cells finish, new
// ones are declined; a second signal kills the worker immediately, which
// is exactly the failure the coordinator's lease reclaim recovers from.
func runWorker(log *slog.Logger, url, token string, slots, killAfter int, dropRate float64, seed int64) {
	w := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: url, Token: token, Slots: slots,
		ChaosKillAfter: killAfter, ChaosDropRate: dropRate, ChaosSeed: seed,
		Log: log,
	})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		w.Drain()
		<-sig
		fmt.Fprintln(os.Stderr, "[inpgbench: second signal, exiting without drain]")
		os.Exit(1)
	}()
	fmt.Fprintf(os.Stderr, "[inpgbench: fleet worker %s serving %s, %d slots]\n", w.ID(), url, slots)
	w.Run()
	fmt.Fprintf(os.Stderr, "[inpgbench: fleet worker %s exiting after %d completions]\n", w.ID(), w.Completed())
}

// paperFigures are the -fig names -all runs, in output order. The
// extraFigures views (fault resilience, latency breakdown) are not paper
// figures: -all leaves them out, so fault-free, untraced suite output
// stays byte-comparable.
var (
	paperFigures = []string{"t1", "2", "7", "8", "9", "10", "11", "12", "13", "14", "15", "abl"}
	extraFigures = []string{"res", "lat"}
	knownFigures = slices.Concat(paperFigures, extraFigures)
)

// parseFigures resolves -all or a comma-separated -fig list into the set
// of figures to run. Empty list elements are skipped ("2," is "2"); an
// unknown name is fatal, so a mistyped figure never exits 0 having
// printed nothing.
func parseFigures(all bool, list string) map[string]bool {
	want := map[string]bool{}
	if all {
		for _, f := range paperFigures {
			want[f] = true
		}
		return want
	}
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if !slices.Contains(knownFigures, f) {
			fmt.Fprintf(os.Stderr, "inpgbench: unknown figure %q (known: %s)\n", f, strings.Join(knownFigures, ","))
			os.Exit(2)
		}
		want[f] = true
	}
	if len(want) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	return want
}

// parseCells parses a comma-separated list of non-negative cell indexes;
// a bad element is fatal (a silently ignored chaos cell would fake a pass).
func parseCells(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 0 {
			fmt.Fprintf(os.Stderr, "inpgbench: bad cell index %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func main() {
	var (
		fig     = flag.String("fig", "", "comma-separated figure list: "+strings.Join(knownFigures, ","))
		all     = flag.Bool("all", false, "run every figure")
		quick   = flag.Bool("quick", false, "smaller runs (for smoke testing)")
		full    = flag.Bool("full13", false, "run Figure 13 over all 24 programs instead of 9")
		scale   = flag.Float64("scale", 0.05, "ROI critical-section scale factor")
		seed    = flag.Int64("seed", 42, "random seed")
		seeds   = flag.Int("seeds", 1, "seeds to average over (figures 11/12)")
		workers = flag.Int("workers", 0, "concurrent simulations per sweep (0 = GOMAXPROCS)")
		compat  = flag.Bool("compat", false, "always-tick engine mode (slow reference scheduler; identical output)")
		fRate   = flag.Float64("faultrate", 0, "combined transient link/port fault rate (0 = faults off)")
		fSeed   = flag.Int64("faultseed", 0, "fault injector seed (0 = derived from -seed)")
		wdog    = flag.Int64("watchdog", 0, "liveness watchdog window in cycles (0 = default, <0 = off)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		metrics = flag.Bool("metrics", false, "enable the per-run telemetry registry")
		manDir  = flag.String("manifest-dir", "", "write one JSON run manifest per simulation into this directory, created when a sweep starts; -resume on it restarts a killed sweep, local or -coordinator")
		runTO   = flag.Duration("run-timeout", 0, "per-run wall-clock deadline (0 = none); overruns fail their cell with diagnostics")
		resume  = flag.String("resume", "", "resume from this manifest directory: skip cells whose manifest records a successful run with a matching config digest")
		chPanic = flag.String("chaos-panic", "", "comma-separated sweep cell indexes to crash with an injected panic (chaos testing)")
		chDead  = flag.String("chaos-deadline", "", "comma-separated sweep cell indexes to fail with an unmeetable wall-time budget (chaos testing)")
		jRate   = flag.Float64("journey-rate", 0, "fraction of lock acquisitions to journey-trace with per-stage latency attribution (0 = off; -fig lat defaults to 1; implies -metrics)")

		coordAddr  = flag.String("coordinator", "", "serve a fleet coordinator on this address (e.g. :9000): sweeps are leased to polling workers instead of the local pool")
		workerURL  = flag.String("worker", "", "serve as a fleet worker for the coordinator at this URL (e.g. http://host:9000); with -coordinator, 'self' runs an in-process worker (local fleet mode)")
		leaseTTL   = flag.Duration("lease-ttl", fleet.DefaultLeaseTTL, "fleet lease time-to-live: a worker must heartbeat within it or its cell is re-dispatched")
		fleetGrace = flag.Duration("fleet-grace", 3*time.Second, "how long the coordinator keeps answering polls with a shutdown order after the last sweep, so workers exit cleanly")
		chKill     = flag.Int("chaos-kill-after", 0, "worker: die holding the Nth acquired lease without completing it (chaos testing)")
		chDrop     = flag.Float64("chaos-drop-rate", 0, "worker: probability a completion acknowledgement is deterministically dropped and the report resent (chaos testing)")
		fleetTok   = flag.String("fleet-token", "", "shared bearer secret for all /fleet/* endpoints: the coordinator requires it, workers send it (/healthz stays open)")
		chKillCoor = flag.Int("chaos-kill-coordinator-after", 0, "coordinator: crash immediately after granting the Nth lease (chaos testing); restart the sweep with -resume on its -manifest-dir, and a surviving worker's report on the dead coordinator's lease is accepted late or dropped as a duplicate")
	)
	flag.Parse()
	// Fleet diagnostics at info level, on stderr so stdout figure tables
	// stay byte-comparable across runs.
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// Pure worker mode: no figures, no sweeps — serve the coordinator
	// until it orders shutdown or SIGTERM drains us.
	if *workerURL != "" && *coordAddr == "" {
		runWorker(logger, *workerURL, *fleetTok, runner.Workers(*workers), *chKill, *chDrop, *seed)
		return
	}
	want := parseFigures(*all, *fig)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "inpgbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "inpgbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "inpgbench:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // flush garbage so the profile shows live + cumulative truthfully
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "inpgbench:", err)
				os.Exit(1)
			}
		}()
	}

	o := experiments.Options{Scale: *scale, Seed: *seed, Seeds: *seeds, Quick: *quick, Workers: *workers, Compat: *compat,
		FaultRate: *fRate, FaultSeed: *fSeed, WatchdogWindow: *wdog,
		Metrics: *metrics, JourneyRate: *jRate, ManifestDir: *manDir,
		RunTimeout: *runTO, Resume: *resume,
		ChaosPanicCells: parseCells(*chPanic), ChaosDeadlineCells: parseCells(*chDead)}
	// Resuming implies journaling: re-run cells land their manifests next
	// to the ones being reused, so a further resume sees a complete set.
	if o.Resume != "" && o.ManifestDir == "" {
		o.ManifestDir = o.Resume
	}
	if *coordAddr != "" {
		coord := fleet.NewCoordinator(fleet.Config{
			LeaseTTL: *leaseTTL, Token: *fleetTok,
			ChaosKillAfter: *chKillCoor, Log: logger,
		})
		ln, err := net.Listen("tcp", *coordAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "inpgbench: coordinator:", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: coord}
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "[inpgbench: fleet coordinator on http://%s]\n", ln.Addr())
		o.Campaign = coord
		// Order the fleet down, give pollers a grace window to observe the
		// shutdown answer and exit cleanly, then stop serving.
		defer func() {
			coord.Shutdown()
			time.Sleep(*fleetGrace)
			srv.Close()
		}()
		if *workerURL != "" {
			// Local fleet mode: an in-process worker alongside the
			// coordinator ("self" targets the bound address).
			target := *workerURL
			if target == "self" {
				target = ln.Addr().String()
			}
			w := fleet.NewWorker(fleet.WorkerConfig{
				Coordinator: target, Token: *fleetTok, Slots: runner.Workers(*workers),
				ChaosKillAfter: *chKill, ChaosDropRate: *chDrop, ChaosSeed: *seed,
				Log: logger,
			})
			fmt.Fprintf(os.Stderr, "[inpgbench: in-process fleet worker %s, %d slots]\n",
				w.ID(), runner.Workers(*workers))
			go w.Run()
		}
	}
	// Stderr so the figure tables on stdout stay byte-comparable across runs.
	fmt.Fprintf(os.Stderr, "[inpgbench: %d workers]\n", runner.Workers(*workers))

	show := func(name string, run func() (string, error)) {
		if !want[name] {
			return
		}
		start := time.Now()
		out, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "inpgbench: figure %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[figure %s regenerated in %.1fs]\n\n", name, time.Since(start).Seconds())
	}

	show("t1", func() (string, error) { return experiments.Table1(), nil })
	show("2", func() (string, error) {
		r, err := experiments.Fig2(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	show("7", func() (string, error) { return experiments.Fig7().Render(), nil })
	show("8", func() (string, error) {
		r, err := experiments.Fig8(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	show("9", func() (string, error) {
		r, err := experiments.Fig9(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	show("10", func() (string, error) {
		r, err := experiments.Fig10(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	// Figures 11 and 12 read the same 96-run sweep; run it once.
	if want["11"] || want["12"] {
		start := time.Now()
		suite, err := experiments.RunSuite(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "inpgbench: suite:", err)
			os.Exit(1)
		}
		if want["11"] {
			fmt.Println(suite.RenderFig11())
		}
		if want["12"] {
			fmt.Println(suite.RenderFig12())
		}
		fmt.Printf("[figures 11/12 regenerated in %.1fs]\n\n", time.Since(start).Seconds())
	}
	show("13", func() (string, error) {
		r, err := experiments.Fig13(o, *full)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	show("14", func() (string, error) {
		r, err := experiments.Fig14(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	show("15", func() (string, error) {
		r, err := experiments.Fig15(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	// The resilience sweep is not a paper figure (and is excluded from
	// -all so fault-free suite output stays byte-comparable): it charts
	// CS throughput against injected fault rates for every mechanism.
	show("res", func() (string, error) {
		r, err := experiments.Resilience(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	// The latency-breakdown figure (not a paper figure, excluded from
	// -all so untraced suite output stays byte-comparable): per-stage
	// attribution of lock-acquisition latency from sampled journeys.
	show("lat", func() (string, error) {
		r, err := experiments.LatencyBreakdown(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	show("abl", func() (string, error) {
		rs, err := experiments.Ablations(o)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, r := range rs {
			b.WriteString(r.Render())
			b.WriteByte('\n')
		}
		return b.String(), nil
	})
}
