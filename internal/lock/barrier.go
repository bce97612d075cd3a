package lock

import (
	"inpg/internal/coherence"
	"inpg/internal/cpu"
	"inpg/internal/noc"
)

// Barrier is a sense-reversing centralized barrier executed over the
// coherent memory system — the synchronization points of the paper's
// Figure 1 program shape ("N threads ... encounter a synchronization
// point"). Each arriving thread atomically increments the count; the last
// arrival resets it and flips the shared sense word (a release
// write-through that recalls every waiter's cached sense copy at once),
// releasing the episode.
type Barrier struct {
	count uint64
	sense uint64
	n     int
	cfg   Config
	// local per-thread sense (what each thread waits for next).
	local   []uint64
	waiters []*barrierWaiter
}

// barrierWaiter is one thread's join continuations.
type barrierWaiter struct {
	done            func()
	flip, poll      func()
	arrived, polled func(uint64)
}

// NewBarrier builds a barrier for n threads with its words homed at home.
func NewBarrier(alloc *AddrAlloc, home noc.NodeID, n int, cfg Config) *Barrier {
	return &Barrier{
		count: alloc.BlockAt(home),
		sense: alloc.BlockAt(home),
		n:     n,
		cfg:   cfg,
		local: make([]uint64, cfg.Threads),
	}
}

// Join blocks the thread until all n participants arrive.
func (b *Barrier) Join(t *cpu.Thread, done func()) {
	w := waiter(&b.waiters, t, b.cfg.Threads, b.bind)
	w.done = done
	b.local[t.ID] ^= 1
	t.Port.Atomic(b.count, coherence.FetchAdd, 1, 0, t.LockPrio(), w.arrived)
}

// bind builds t's join continuations; b.local[t.ID] is the sense the
// thread waits for.
func (b *Barrier) bind(t *cpu.Thread) *barrierWaiter {
	w := &barrierWaiter{}
	w.arrived = func(old uint64) {
		if int(old) == b.n-1 {
			// Last arrival: reset the count, then flip the sense. The
			// write-throughs recall all waiters' cached copies so every
			// spinner re-reads the new sense.
			t.Port.StoreRelease(b.count, 0, true, releasePrio(t), w.flip)
			return
		}
		w.poll()
	}
	w.flip = func() {
		t.Port.StoreRelease(b.sense, b.local[t.ID], true, releasePrio(t), w.done)
	}
	w.poll = func() { t.Port.Load(b.sense, true, t.LockPrio(), w.polled) }
	w.polled = func(v uint64) {
		if v == b.local[t.ID] {
			w.done()
			return
		}
		spinAgain(t, b.cfg, w.poll)
	}
	return w
}

// N returns the participant count.
func (b *Barrier) N() int { return b.n }
