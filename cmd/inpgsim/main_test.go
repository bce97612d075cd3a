package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"inpg"
	"inpg/internal/sim"
)

// TestTraceTotalsCoverWindow runs the -trace flags of the CI "Protocol
// trace smoke" (`-threads 8 -mech iNPG -lock TAS -cs 2 -cscyc 80
// -parallel 150 -trace`), whose window holds more events than -trace
// prints. The header must give the window's event count and the cycle
// the printed events end at, and the totals by kind must sum to the
// window's count, not to the printed events'.
func TestTraceTotalsCoverWindow(t *testing.T) {
	cfg := inpg.DefaultConfig()
	cfg.Mechanism = inpg.INPG
	cfg.Lock = inpg.LockTAS
	cfg.Threads = 8
	cfg.CSPerThread = 2
	cfg.CSCycles, cfg.CSJitter = 80, 80/3
	cfg.ParallelCycles, cfg.ParallelJitter = 150, 150/4
	cfg.Seed = 1
	cfg.TraceCapacity = 1 << 16
	cfg.TraceAddr = inpg.PrimaryLockAddr(cfg)
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printTrace(&out, sys, cfg)
	lines := strings.Split(out.String(), "\n")

	var inWindow, traced, shown int
	var start, end, last sim.Cycle
	if _, err := fmt.Sscanf(lines[1], "%d of %d traced events in window %d..%d; showing the first %d, to cycle %d",
		&inWindow, &traced, &start, &end, &shown, &last); err != nil {
		t.Fatalf("header %q: %v", lines[1], err)
	}
	window := sys.Trace().Window(start, end)
	if inWindow != len(window) || traced != sys.Trace().Len() {
		t.Fatalf("header %q: window holds %d of %d traced events", lines[1], len(window), sys.Trace().Len())
	}
	if shown != traceMaxEvents || inWindow <= shown {
		t.Fatalf("header %q: want a window of more than %d events, %d shown", lines[1], traceMaxEvents, traceMaxEvents)
	}
	if want := window[shown-1].Cycle; last != want {
		t.Fatalf("header %q: shown events end at cycle %d, want %d", lines[1], last, want)
	}

	sum := 0
	for i, l := range lines {
		if l != "event totals in window:" {
			continue
		}
		for _, row := range lines[i+1:] {
			var kind string
			var n int
			if _, err := fmt.Sscanf(row, "%s %d", &kind, &n); err == nil {
				sum += n
			}
		}
	}
	if sum != inWindow {
		t.Fatalf("event totals sum to %d, want the window's %d events", sum, inWindow)
	}
}
