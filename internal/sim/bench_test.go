package sim

import "testing"

// BenchmarkScheduleStep measures the event-heap round trip: schedule one
// future callback, advance one cycle, fire it. With the preallocated heap
// backing, steady-state push/pop must not grow the slice.
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
// on one cycle). Exercises heap growth up to the burst size and reuse of
// the backing array across iterations.
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
