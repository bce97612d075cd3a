package experiments

import (
	"sync"
	"testing"

	"inpg"
	"inpg/internal/fault"
	"inpg/internal/noc"
	"inpg/internal/runner"
)

// chaosCell returns a clean sweep cell guaranteed to cross the engine's
// first cooperative abort check (cycle 4096) before finishing, so a
// deadline-chaos cell reliably times out instead of completing first.
func chaosCell(seed int64) inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 2, 2
	cfg.Threads = 4
	cfg.CSPerThread = 4
	cfg.CSCycles = 60
	cfg.ParallelCycles = 2000
	cfg.Seed = seed
	return cfg
}

// wedgeCell is the deterministic wedge of TestWedgedRunDiagnosedByWatchdog:
// every port into the lock's home node permanently stalled, bounded
// retransmissions exhausted, so the liveness watchdog diagnoses a stall.
func wedgeCell() inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.Lock = inpg.LockTAS
	cfg.CSPerThread = 2
	cfg.LockHomeNode = 10
	cfg.WatchdogWindow = 50_000
	cfg.MaxCycles = 50_000_000
	mesh := noc.Mesh{Width: 4, Height: 4}
	home := noc.NodeID(10)
	for _, nb := range []noc.NodeID{6, 9, 11, 14} {
		cfg.Fault.PermanentStalls = append(cfg.Fault.PermanentStalls, fault.PortStall{
			Node: int(nb), Port: int(mesh.RouteXY(nb, home)), From: 1000,
		})
	}
	cfg.Fault.MaxRetries = 3
	cfg.Fault.RetryTimeout = 8
	return cfg
}

// TestChaosSweepQuarantinesAndResumes is the end-to-end resilience check:
// a sweep with a wedging cell, a panicking cell and a deadline cell
// completes without an infrastructure error, reports exactly those three
// cells MISSING with three distinct cause classes, and a -resume-style
// second pass re-executes only the three failed cells and the clean cell
// whose configuration changed, skipping every other clean one from its
// manifest.
func TestChaosSweepQuarantinesAndResumes(t *testing.T) {
	dir := t.TempDir()
	cfgs := []inpg.Config{
		chaosCell(1), wedgeCell(), chaosCell(3), chaosCell(4), chaosCell(5), chaosCell(6),
	}
	o := Options{
		Workers:            2,
		ManifestDir:        dir,
		ChaosPanicCells:    []int{2},
		ChaosDeadlineCells: []int{3},
	}
	results, missing, err := runAll(o, "chaos", cfgs)
	if err != nil {
		t.Fatalf("chaos sweep must keep going, got infrastructure error: %v", err)
	}
	wantCause := map[int]runner.Cause{
		1: runner.CauseStall, 2: runner.CausePanic, 3: runner.CauseTimeout,
	}
	if len(missing) != len(wantCause) {
		t.Fatalf("missing = %v, want exactly cells 1, 2, 3", missing)
	}
	for _, m := range missing {
		want, ok := wantCause[m.Index]
		if !ok || m.Cause != want {
			t.Fatalf("cell %d cause = %s, want %s (%v)", m.Index, m.Cause, want, m.Err)
		}
		delete(wantCause, m.Index)
		if got := m.String(); got == "" || got[:len("MISSING(chaos/")] != "MISSING(chaos/" {
			t.Fatalf("annotation format: %q", got)
		}
	}
	for _, i := range []int{0, 4, 5} {
		if results[i] == nil {
			t.Fatalf("clean cell %d lost its results", i)
		}
	}
	for _, i := range []int{1, 2, 3} {
		if results[i] != nil {
			t.Fatalf("failed cell %d has results", i)
		}
	}

	// Second pass: chaos lifted and the wedge replaced by a fixed
	// configuration — the resume of a repaired sweep. Cell 5's
	// configuration changed too, so its OK manifest records another
	// digest. Only the three failed cells and cell 5 may execute; clean
	// cells 0 and 4 are satisfied from their manifests.
	cfgs[1] = chaosCell(2)
	cfgs[5] = chaosCell(7)
	var mu sync.Mutex
	claimed, skipped := map[int]int{}, map[int]int{}
	o2 := Options{
		Workers:     2,
		ManifestDir: dir,
		Resume:      dir,
		Observer: func(out runner.Outcome) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case out.Status == runner.StatusSkipped:
				skipped[out.Index]++
			case !out.Done:
				claimed[out.Index]++
			}
		},
	}
	results2, missing2, err := runAll(o2, "chaos", cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing2) != 0 {
		t.Fatalf("resumed sweep still missing cells: %v", missing2)
	}
	for i, r := range results2 {
		if r == nil {
			t.Fatalf("resumed sweep has no results for cell %d", i)
		}
	}
	for _, i := range []int{1, 2, 3, 5} {
		if claimed[i] != 1 || skipped[i] != 0 {
			t.Fatalf("failed or changed cell %d: claimed %d, skipped %d; want exactly one re-execution",
				i, claimed[i], skipped[i])
		}
	}
	for _, i := range []int{0, 4} {
		if claimed[i] != 0 || skipped[i] != 1 {
			t.Fatalf("clean cell %d: claimed %d, skipped %d; want a manifest skip",
				i, claimed[i], skipped[i])
		}
	}

	// The reused results must match a fresh execution bit for bit: the
	// manifest round-trips every field the figures aggregate.
	fresh, err := Run(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if results2[0].Runtime != fresh.Runtime || results2[0].LCOPercent != fresh.LCOPercent ||
		results2[0].CSCompleted != fresh.CSCompleted {
		t.Fatalf("manifest-reconstructed results diverge:\n%+v\nvs fresh\n%+v", results2[0], fresh)
	}
}

// TestFig2DeterministicWithRetriesEnabled pins the acceptance bar: on a
// fault-free sweep, enabling retries changes nothing, at any worker count.
func TestFig2DeterministicWithRetriesEnabled(t *testing.T) {
	ref, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		o := tiny()
		o.Retries, o.Workers = 2, workers
		r, err := Fig2(o)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.Render(), ref.Render(); got != want {
			t.Fatalf("Fig2 with retries at workers=%d differs from baseline:\n%s\nvs\n%s",
				workers, got, want)
		}
	}
}
