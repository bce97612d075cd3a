package lock

import (
	"inpg/internal/coherence"
	"inpg/internal/cpu"
	"inpg/internal/noc"
)

// abql is the array-based queuing lock: a fetch-and-increment tail counter
// assigns each waiter its own flag word (one cache line each), so waiters
// spin on distinct lines and a release invalidates exactly one waiter.
type abql struct {
	tail    uint64
	flags   []uint64
	cfg     Config
	slot    []int
	waiters []*abqlWaiter
}

// abqlWaiter is one thread's acquire loop.
type abqlWaiter struct {
	done            func()
	poll            func()
	queued, swapped func(uint64)
}

func newABQL(alloc *AddrAlloc, home noc.NodeID, cfg Config) *abql {
	l := &abql{
		tail: alloc.BlockAt(home),
		cfg:  cfg,
		slot: make([]int, cfg.Threads),
	}
	for i := 0; i < cfg.Threads; i++ {
		l.flags = append(l.flags, alloc.Block())
	}
	// Slot 0 starts available.
	alloc.Pre.Preload(l.flags[0], 1)
	return l
}

// Name implements cpu.Lock.
func (l *abql) Name() string { return "ABQL" }

// Acquire implements cpu.Lock.
func (l *abql) Acquire(t *cpu.Thread, done func()) {
	w := waiter(&l.waiters, t, l.cfg.Threads, l.bind)
	w.done = done
	t.Port.Atomic(l.tail, coherence.FetchAdd, 1, 0, t.LockPrio(), w.queued)
}

// bind builds t's acquire loop.
func (l *abql) bind(t *cpu.Thread) *abqlWaiter {
	w := &abqlWaiter{}
	w.queued = func(ticket uint64) {
		l.slot[t.ID] = int(ticket) % l.cfg.Threads
		w.poll()
	}
	// Poll the flag with an atomic swap-to-zero (Anderson's variant
	// protects the slots with test_and_set): swapping 0 over a 0 flag is
	// a failed poll; swapping 0 over the grant (1) acquires the lock and
	// consumes the grant in the same operation.
	w.poll = func() {
		t.Port.Atomic(l.flags[l.slot[t.ID]], coherence.Swap, 0, 0, t.LockPrio(), w.swapped)
	}
	w.swapped = func(old uint64) {
		if old == 1 {
			w.done()
			return
		}
		spinAgain(t, l.cfg, w.poll)
	}
	return w
}

// Release implements cpu.Lock.
func (l *abql) Release(t *cpu.Thread, done func()) {
	next := (l.slot[t.ID] + 1) % l.cfg.Threads
	t.Port.StoreRelease(l.flags[next], 1, true, releasePrio(t), done)
}
