package inpg_test

import (
	"runtime"
	"testing"

	"inpg"
)

// buildBytes returns the bytes inpg.New allocates for cfg: the smallest
// runtime.MemStats.TotalAlloc delta over three builds, so an allocation by
// some other goroutine cannot inflate the reading.
func buildBytes(t *testing.T, cfg inpg.Config) uint64 {
	t.Helper()
	var best uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sys, err := inpg.New(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(sys)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < best {
			best = d
		}
	}
	return best
}

// TestPlatformBuildFootprint caps the bytes a platform build allocates:
// the 32×32, 256-thread BenchmarkLargeMeshPlatformBuild platform and the
// Table 1 platform of BenchmarkTable1PlatformBuild. The network's router
// slabs are about two thirds of either build. A thread's seeded stream is
// 96 bytes until its 274th draw (DESIGN.md §16), so the thread count
// barely moves either cap.
func TestPlatformBuildFootprint(t *testing.T) {
	large := largeMeshConfig(32, inpg.LockQSL, 500)
	large.Threads = 256
	for _, tc := range []struct {
		name string
		cfg  inpg.Config
		max  uint64
	}{
		{"table1", inpg.DefaultConfig(), 450_000},
		{"mesh32-256threads", large, 5_600_000},
	} {
		if got := buildBytes(t, tc.cfg); got > tc.max {
			t.Errorf("%s: inpg.New allocated %.2f MB, cap %.2f MB", tc.name, float64(got)/1e6, float64(tc.max)/1e6)
		}
	}
}
