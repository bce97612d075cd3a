package lock

import (
	"inpg/internal/coherence"
	"inpg/internal/cpu"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

// Ticket-word encoding: the next-ticket counter lives in the upper half of
// one 64-bit lock word and the now-serving counter in the lower half, the
// classic packed ticket-lock layout. Both counters sharing one cache line
// means every ticket grab and every release invalidates the copies all
// waiters poll — the lock coherence behaviour the paper measures for TTL.
const (
	ticketInc    = uint64(1) << 32
	servingMask  = ticketInc - 1
	ticketShift  = 32
	maxBackoffRT = 16 // cap on proportional backoff multiplier
)

// ticket is the ticket lock (TTL): fetch-and-increment on the packed
// ticket word hands out FIFO tickets; waiters poll the same word with an
// atomic fetch-add of zero (an exclusive read-modify-write, so the polls
// are in-flight GetX requests that big routers can stop), with
// proportional backoff by queue distance.
type ticket struct {
	word    uint64
	cfg     Config
	mine    []uint64 // ticket held per thread
	waiters []*ticketWaiter
}

// ticketWaiter is one thread's acquire and release continuations.
type ticketWaiter struct {
	done, relDone   func()
	poll            func()
	grabbed, polled func(uint64)
	released        func(uint64)
}

func newTicket(alloc *AddrAlloc, home noc.NodeID, cfg Config) *ticket {
	return &ticket{
		word: alloc.BlockAt(home),
		cfg:  cfg,
		mine: make([]uint64, cfg.Threads),
	}
}

// Acquire implements cpu.Lock.
func (l *ticket) Acquire(t *cpu.Thread, done func()) {
	w := waiter(&l.waiters, t, l.cfg.Threads, l.bind)
	w.done = done
	t.Port.Atomic(l.word, coherence.FetchAdd, ticketInc, 0, t.LockPrio(), w.grabbed)
}

// bind builds t's continuations.
func (l *ticket) bind(t *cpu.Thread) *ticketWaiter {
	w := &ticketWaiter{}
	w.grabbed = func(old uint64) {
		myTicket := old >> ticketShift
		l.mine[t.ID] = myTicket
		if old&servingMask == myTicket {
			w.done()
			return
		}
		w.poll()
	}
	w.poll = func() { t.Port.Load(l.word, true, t.LockPrio(), w.polled) }
	w.polled = func(v uint64) {
		myTicket := l.mine[t.ID]
		serving := v & servingMask
		if serving == myTicket {
			w.done()
			return
		}
		t.CountRetry()
		// Proportional backoff: threads deep in the queue poll less
		// often (Mellor-Crummey & Scott's classic tuning).
		dist := myTicket - serving
		if dist > maxBackoffRT {
			dist = maxBackoffRT
		}
		t.Eng().Schedule(l.cfg.SpinInterval*sim.Cycle(dist), w.poll)
	}
	w.released = func(uint64) { w.relDone() }
	return w
}

// Release implements cpu.Lock.
func (l *ticket) Release(t *cpu.Thread, done func()) {
	w := waiter(&l.waiters, t, l.cfg.Threads, l.bind)
	w.relDone = done
	t.Port.Atomic(l.word, coherence.FetchAdd, 1, 0, releasePrio(t), w.released)
}
