package lock

import (
	"inpg/internal/coherence"
	"inpg/internal/cpu"
	"inpg/internal/noc"
)

// mcs is the Mellor-Crummey & Scott queue lock: each thread has its own
// queue node (a locked flag line and a next-pointer line), a global tail
// pointer is updated by atomic swap/compare-and-swap, and each waiter
// spins only on its own locked flag — eliminating the cache-line bouncing
// of the global-word locks. Node IDs are encoded as id+1 so 0 means nil.
type mcs struct {
	tail    uint64
	locked  []uint64
	next    []uint64
	cfg     Config
	waiters []*mcsWaiter
}

// mcsWaiter is one thread's acquire and release continuations.
type mcsWaiter struct {
	done, relDone func()

	// Acquire: reset the queue node, arm the flag, swap into the tail,
	// link behind the predecessor, spin on the flag.
	reset, armed, poll func()
	enqueued, polled   func(uint64)

	// Release: read the successor pointer, or try to close the queue,
	// or wait for a successor still linking in.
	succRead, closed, relPolled func(uint64)
	relPoll                     func()
}

func newMCS(alloc *AddrAlloc, home noc.NodeID, cfg Config) *mcs {
	l := &mcs{tail: alloc.BlockAt(home), cfg: cfg}
	for i := 0; i < cfg.Threads; i++ {
		l.locked = append(l.locked, alloc.Block())
		l.next = append(l.next, alloc.Block())
	}
	return l
}

// Name implements cpu.Lock.
func (l *mcs) Name() string { return "MCS" }

// Acquire implements cpu.Lock.
func (l *mcs) Acquire(t *cpu.Thread, done func()) {
	w := waiter(&l.waiters, t, l.cfg.Threads, l.bind)
	w.done = done
	// Reset the queue node: no successor, flag armed — the flag must be
	// armed before the predecessor can link to us.
	t.Port.Store(l.next[t.ID], 0, true, t.LockPrio(), w.reset)
}

// Release implements cpu.Lock.
func (l *mcs) Release(t *cpu.Thread, done func()) {
	w := waiter(&l.waiters, t, l.cfg.Threads, l.bind)
	w.relDone = done
	t.Port.Load(l.next[t.ID], true, releasePrio(t), w.succRead)
}

// bind builds t's continuations. Node IDs are encoded as id+1.
func (l *mcs) bind(t *cpu.Thread) *mcsWaiter {
	me := uint64(t.ID + 1)
	w := &mcsWaiter{}
	w.reset = func() { t.Port.Store(l.locked[t.ID], 1, true, t.LockPrio(), w.armed) }
	w.armed = func() { t.Port.Atomic(l.tail, coherence.Swap, me, 0, t.LockPrio(), w.enqueued) }
	w.enqueued = func(pred uint64) {
		if pred == 0 {
			w.done() // queue was empty: lock acquired
			return
		}
		// Link behind the predecessor, then spin locally.
		t.Port.Store(l.next[pred-1], me, true, t.LockPrio(), w.poll)
	}
	w.poll = func() { t.Port.Load(l.locked[t.ID], true, t.LockPrio(), w.polled) }
	w.polled = func(v uint64) {
		if v == 0 {
			w.done()
			return
		}
		spinAgain(t, l.cfg, w.poll)
	}

	w.succRead = func(succ uint64) {
		if succ != 0 {
			t.Port.StoreRelease(l.locked[succ-1], 0, true, releasePrio(t), w.relDone)
			return
		}
		// No visible successor: try to close the queue.
		t.Port.Atomic(l.tail, coherence.CompareSwap, me, 0, releasePrio(t), w.closed)
	}
	w.closed = func(old uint64) {
		if old == me {
			w.relDone() // queue closed
			return
		}
		// A successor is mid-link: wait for the pointer to appear.
		w.relPoll()
	}
	w.relPoll = func() { t.Port.Load(l.next[t.ID], true, releasePrio(t), w.relPolled) }
	w.relPolled = func(s uint64) {
		if s == 0 {
			t.Eng().Schedule(l.cfg.SpinInterval, w.relPoll)
			return
		}
		t.Port.StoreRelease(l.locked[s-1], 0, true, releasePrio(t), w.relDone)
	}
	return w
}
