package coherence

import "inpg/internal/sim"

// delayLine hands values to a handler a fixed delay after they are pushed,
// in push order. It stands in for one closure per event: the line schedules
// one func, bound on first use, per entry, and each firing pops the oldest
// entry. Every entry waits the same delay, so the engine's (cycle, seq)
// order of the firings is exactly push order, and the events interleave
// with everything else as per-event closures would.
type delayLine[T any] struct {
	fire func()
	buf  []T    // ring buffer; its length is zero or a power of two
	r, w uint32 // free-running pop and push counts
}

// bound reports whether bind has run.
func (l *delayLine[T]) bound() bool { return l.fire != nil }

// bind sets the handler. Owners call it lazily, so a controller that never
// uses its line never allocates the bound func.
func (l *delayLine[T]) bind(fn func(T)) {
	l.fire = func() { fn(l.pop()) }
}

// push queues v for the handler, which runs delay cycles after the next
// cycle (sim.Engine.Schedule's convention).
func (l *delayLine[T]) push(eng *sim.Engine, delay sim.Cycle, v T) {
	if n := int(l.w - l.r); n == len(l.buf) {
		grown := make([]T, max(2*n, 4))
		for i := range n {
			grown[i] = l.buf[(l.r+uint32(i))&uint32(n-1)]
		}
		l.buf, l.r, l.w = grown, 0, uint32(n)
	}
	l.buf[l.w&uint32(len(l.buf)-1)] = v
	l.w++
	eng.Schedule(delay, l.fire)
}

// pop removes and returns the oldest entry.
func (l *delayLine[T]) pop() T {
	i := l.r & uint32(len(l.buf)-1)
	v := l.buf[i]
	var zero T
	l.buf[i] = zero
	l.r++
	return v
}
