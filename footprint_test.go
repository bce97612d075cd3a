package inpg_test

import (
	"runtime"
	"testing"

	"inpg"
)

// heapCost returns the bytes and heap allocations f makes: the smallest
// runtime.MemStats deltas over three calls, so an allocation by some
// other goroutine cannot inflate the reading.
func heapCost(f func()) (bytes, allocs uint64) {
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		b, n := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		if i == 0 || b < bytes {
			bytes = b
		}
		if i == 0 || n < allocs {
			allocs = n
		}
	}
	return bytes, allocs
}

// TestPlatformBuildFootprint caps the bytes and allocations a platform
// build makes: the 32×32, 256-thread BenchmarkLargeMeshPlatformBuild
// platform and the Table 1 platform of BenchmarkTable1PlatformBuild.
// Neither build includes router buffers: the network builds them 64
// routers at a time when traffic first reaches one, so they are made
// during the run (DESIGN.md §15). What a build makes is per-node structs
// in slabs: the router and NI arrays are about two fifths of the 32×32
// build's bytes, and the L1, directory and sink-demux slabs another two
// fifths. L1 line slabs, directory maps and barrier tables are made on
// first use too, and a thread's seeded stream is 96 bytes until its
// 274th draw (DESIGN.md §16), so the thread count barely moves the byte
// caps.
func TestPlatformBuildFootprint(t *testing.T) {
	large := largeMeshConfig(32, inpg.LockQSL, 500)
	large.Threads = 256
	for _, tc := range []struct {
		name      string
		cfg       inpg.Config
		maxBytes  uint64
		maxAllocs uint64
	}{
		{"table1", inpg.DefaultConfig(), 200_000, 300},
		{"mesh32-256threads", large, 2_200_000, 1_000},
	} {
		var err error
		bytes, allocs := heapCost(func() {
			var sys *inpg.System
			sys, err = inpg.New(tc.cfg)
			runtime.KeepAlive(sys)
		})
		if err != nil {
			t.Fatal(err)
		}
		if bytes > tc.maxBytes {
			t.Errorf("%s: inpg.New allocated %.2f MB, cap %.2f MB", tc.name, float64(bytes)/1e6, float64(tc.maxBytes)/1e6)
		}
		if allocs > tc.maxAllocs {
			t.Errorf("%s: inpg.New made %d allocations, cap %d", tc.name, allocs, tc.maxAllocs)
		}
		t.Logf("%s: inpg.New %.3f MB in %d allocations", tc.name, float64(bytes)/1e6, allocs)
	}
}
