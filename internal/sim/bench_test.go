package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkScheduleStep measures the event round trip: schedule one
// callback for the next cycle, advance one cycle, fire it. The node goes
// back to the wheel's free list, so steady state must not grow the slab.
func BenchmarkScheduleStep(b *testing.B) {
	e := NewEngine(1)
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(0, func() { sink++ })
		e.Step()
	}
	if sink != b.N {
		b.Fatalf("fired %d of %d events", sink, b.N)
	}
}

// BenchmarkScheduleBurst pushes a burst of same-cycle events and drains
// it, the shape the NoC produces under contention (many deliveries landing
// on one cycle). Exercises one long chain and reuse of its nodes across
// iterations.
func BenchmarkScheduleBurst(b *testing.B) {
	e := NewEngine(1)
	sink := 0
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			e.Schedule(0, fn)
		}
		e.Step()
	}
	if sink != 64*b.N {
		b.Fatalf("fired %d of %d events", sink, 64*b.N)
	}
}

// BenchmarkScheduleSpread schedules one event a cycle with the delays the
// Table 1 platform schedules: 48% at 0 cycles, 33% at 1–6, 16% at 7–14,
// 1% at 15–255 and 2% at 511 or more (beyond the wheel's span, so through
// the far heap), then steps one cycle.
func BenchmarkScheduleSpread(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]Cycle, 1000)
	for i := range delays {
		switch p := rng.Intn(100); {
		case p < 48:
		case p < 81:
			delays[i] = Cycle(1 + rng.Intn(6))
		case p < 97:
			delays[i] = Cycle(7 + rng.Intn(8))
		case p < 98:
			delays[i] = Cycle(15 + rng.Intn(241))
		default:
			delays[i] = Cycle(511 + rng.Intn(1024))
		}
	}
	e := NewEngine(1)
	sink := 0
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(delays[i%len(delays)], fn)
		e.Step()
	}
	if sink+e.PendingEvents() != b.N {
		b.Fatalf("fired %d and hold %d of %d events", sink, e.PendingEvents(), b.N)
	}
}

// BenchmarkIdleFastForward measures Run crossing a long idle gap: many
// registered-but-sleeping tickers and one far-future event. The cost must
// be independent of the gap length (one jump, not a million empty steps)
// and must not scale with the number of sleeping components.
func BenchmarkIdleFastForward(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 128; i++ {
		h := e.Register(TickFunc(func(Cycle) {}))
		e.Sleep(h)
	}
	fired := false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fired = false
		e.Schedule(1_000_000, func() { fired = true })
		if _, err := e.Run(2_000_000, func() bool { return fired }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepSparse steps 2048 registered tickers with 8 awake, the
// shape of an activity-light 32x32 mesh (one router and one NI per node).
// The tick pass must cost what the awake tickers cost, not what the
// registered ones do.
func BenchmarkStepSparse(b *testing.B) {
	const tickers, awake = 2048, 8
	e := NewEngine(1)
	for i := 0; i < tickers; i++ {
		h := e.Register(TickFunc(func(Cycle) {}))
		if i%(tickers/awake) != 0 {
			e.Sleep(h)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkStepDense steps 128 tickers that are all awake: the all-awake
// pass of a busy mesh.
func BenchmarkStepDense(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 128; i++ {
		e.Register(TickFunc(func(Cycle) {}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
