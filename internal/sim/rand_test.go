package sim

import (
	"math"
	"math/rand"
	"testing"
)

// randSeeds returns the edge seeds of math/rand's normalization plus n
// pseudo-random seeds of both signs.
func randSeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, 89482311, int32max, -int32max, 2 * int32max, -2 * int32max,
		1 << 31, int32max - 1, int32max + 1, math.MinInt64, math.MaxInt64,
	}
	g := rand.New(rand.NewSource(20180224))
	for len(seeds) < n {
		seeds = append(seeds, int64(g.Uint64()))
	}
	return seeds
}

// compareDraws makes calls method calls on both generators, cycling
// through Int63, Uint64, Intn at several bounds and Float64, and reports
// the first that differs.
func compareDraws(t *testing.T, seed int64, want, got *rand.Rand, calls int) {
	t.Helper()
	bounds := []int{1, 7, 100, 1 << 20, math.MaxInt32}
	for i := 0; i < calls; i++ {
		var w, g any
		switch i % 4 {
		case 0:
			w, g = want.Int63(), got.Int63()
		case 1:
			w, g = want.Uint64(), got.Uint64()
		case 2:
			n := bounds[(i/4)%len(bounds)]
			w, g = want.Intn(n), got.Intn(n)
		case 3:
			w, g = want.Float64(), got.Float64()
		}
		if w != g {
			t.Fatalf("seed %d: call %d = %v, math/rand gives %v", seed, i, g, w)
		}
	}
}

// TestNewRandMatchesMathRand checks NewRand against math/rand, the
// reference, across the stateless window (draws 1–273), materialization
// (draw 274) and the wrap of the 607-word state, and again after a
// mid-stream reseed of a live and of a not-yet-live stream.
func TestNewRandMatchesMathRand(t *testing.T) {
	for _, seed := range randSeeds(520) {
		want, got := rand.New(rand.NewSource(seed)), NewRand(seed)
		compareDraws(t, seed, want, got, 2000)

		reseed := seed*31 + 7
		want.Seed(reseed)
		got.Seed(reseed)
		compareDraws(t, reseed, want, got, 100)

		reseed = -seed
		want.Seed(reseed)
		got.Seed(reseed)
		compareDraws(t, reseed, want, got, 1000)
	}
}

// FuzzNewRand compares n raw draws, then one of each derived kind, with
// math/rand for arbitrary seeds.
func FuzzNewRand(f *testing.F) {
	for _, seed := range randSeeds(13) {
		f.Add(seed, uint16(rngLen+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		want, got := rand.New(rand.NewSource(seed)), NewRand(seed)
		for i := 0; i < int(n); i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: draw %d = %d, math/rand gives %d", seed, i+1, g, w)
			}
		}
		compareDraws(t, seed, want, got, 4)
	})
}

// TestNewRandAllocations pins the cost model: a stream is two allocations
// until its 274th draw, which allocates the state once; a reseed reuses it.
func TestNewRandAllocations(t *testing.T) {
	draws := func(r *rand.Rand, n int) {
		for i := 0; i < n; i++ {
			r.Uint64()
		}
	}
	stateless := testing.AllocsPerRun(100, func() { draws(NewRand(42), rngTap) })
	if stateless > 2 {
		t.Errorf("NewRand and %d draws made %.0f allocations, want at most 2", rngTap, stateless)
	}
	live := testing.AllocsPerRun(100, func() { draws(NewRand(42), 2*rngLen) })
	if live != stateless+1 {
		t.Errorf("NewRand and %d draws made %.0f allocations, want %.0f: the state is allocated once, on draw %d",
			2*rngLen, live, stateless+1, rngTap+1)
	}
	r := NewRand(42)
	draws(r, rngTap+1)
	reseeded := testing.AllocsPerRun(100, func() {
		r.Seed(7)
		draws(r, 2*rngLen)
	})
	if reseeded != 0 {
		t.Errorf("a reseeded live stream made %.0f allocations, want 0", reseeded)
	}
}

// streamSink keeps BenchmarkSeededStream's draws live.
var streamSink int

// BenchmarkSeededStream builds one stream and makes six Intn draws, a
// thread's draws over three critical sections.
func BenchmarkSeededStream(b *testing.B) {
	for _, bc := range []struct {
		name string
		new  func(int64) *rand.Rand
	}{
		{"NewRand", NewRand},
		{"math-rand", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := bc.new(int64(i))
				for j := 0; j < 6; j++ {
					streamSink += r.Intn(200)
				}
			}
		})
	}
}
