// Command inpgtrace records and renders a message-level protocol trace of
// one lock competition: every packet injected and delivered for the lock's
// cache block, every in-network stop, early invalidation and relayed
// acknowledgement, and the thread-level acquire/release transitions.
//
// It is the tool to reach for when aggregate counters are not enough —
// e.g. to see exactly where a SWAP was stopped and how its early
// invalidation overlapped the winner's transaction.
//
// Example:
//
//	inpgtrace -mech iNPG -threads 8 -window 400
package main

import (
	"flag"
	"fmt"
	"os"

	"inpg"
	"inpg/internal/metrics"
	"inpg/internal/sim"
	"inpg/internal/trace"
)

func main() {
	var (
		mechName = flag.String("mech", "iNPG", "mechanism: Original, OCOR, iNPG, iNPG+OCOR")
		lockName = flag.String("lock", "TAS", "lock primitive")
		threads  = flag.Int("threads", 8, "competing threads")
		window   = flag.Int("window", 600, "cycles of trace to print, starting at the first acquire")
		maxEv    = flag.Int("max", 200, "maximum events to print")
		seed     = flag.Int64("seed", 1, "random seed")
		outFile  = flag.String("out", "", "also export the full trace as Chrome trace-event/Perfetto JSON to this file")
		jRate    = flag.Float64("journey-rate", 0, "fraction of lock acquisitions to journey-trace; sampled journeys render as nested spans in -out")
	)
	flag.Parse()

	mech, err := inpg.ParseMechanism(*mechName)
	fatal(err)
	lk, err := inpg.ParseLockKind(*lockName)
	fatal(err)

	cfg := inpg.DefaultConfig()
	cfg.Mechanism = mech
	cfg.Lock = lk
	cfg.Threads = *threads
	cfg.CSPerThread = 2
	cfg.CSCycles = 80
	cfg.CSJitter = 20
	cfg.ParallelCycles = 150
	cfg.ParallelJitter = 50
	cfg.Seed = *seed
	cfg.TraceCapacity = 1 << 16
	cfg.JourneyRate = *jRate
	cfg.TraceAddr = inpg.PrimaryLockAddr(cfg) // trace only the primary lock block

	sys, err := inpg.New(cfg)
	fatal(err)
	_, err = sys.Run()
	fatal(err)

	buf := sys.Trace()
	events := buf.Events()
	if *outFile != "" {
		f, err := os.Create(*outFile)
		fatal(err)
		fatal(metrics.WriteChromeTraceJourneys(f, events, sys.MetricsSampler(), sys.Journeys()))
		fatal(f.Close())
		fmt.Fprintf(os.Stderr, "[trace: %s, %d events]\n", *outFile, len(events))
	}
	if len(events) == 0 {
		fmt.Println("no events traced for the lock block")
		return
	}
	// Start the window at the first acquire so the initial cold-start
	// noise is skipped.
	start := events[0].Cycle
	for _, e := range events {
		if e.Kind == trace.LockAcquire {
			start = e.Cycle
			break
		}
	}
	shown := buf.Window(start, start+sim.Cycle(*window))
	if len(shown) > *maxEv {
		shown = shown[:*maxEv]
	}
	fmt.Printf("lock block %#x (home node %d), %s over %s, %d threads\n",
		cfg.TraceAddr, sys.Fabric().Homes.Home(cfg.TraceAddr), lk, mech, *threads)
	fmt.Printf("showing %d of %d traced events (window %d..%d)\n\n",
		len(shown), buf.Len(), start, start+sim.Cycle(*window))
	fmt.Print(trace.Render(shown))

	fmt.Println("\nevent totals in window:")
	counts := trace.CountByKind(shown)
	for kind := trace.PktInject; kind <= trace.LinkDead; kind++ {
		if n := counts[kind]; n > 0 {
			fmt.Printf("  %-10s %d\n", kind, n)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "inpgtrace:", err)
		os.Exit(1)
	}
}
