package lock

import (
	"inpg/internal/coherence"
	"inpg/internal/cpu"
	"inpg/internal/noc"
)

// tas is the test-and-set lock executed exactly as the paper's
// Algorithm 1: spin-read the lock word until it reads "available" (LD +
// BNEZ on a locally cached copy), then race an atomic SWAP to the home
// node; the thread whose SWAP returns 0 holds the lock, all others loop
// back to spinning. Every release invalidates all spinning copies and
// triggers a refill + SWAP storm — the highest lock coherence overhead of
// the five primitives (Figure 2), and the one iNPG accelerates most
// (Figure 13) since the losing SWAPs are in flight and stoppable.
type tas struct {
	addr    uint64
	cfg     Config
	waiters []*tasWaiter
}

// tasWaiter is one thread's acquire loop.
type tasWaiter struct {
	done            func()
	poll            func()
	polled, swapped func(uint64)
}

func newTAS(alloc *AddrAlloc, home noc.NodeID, cfg Config) *tas {
	return &tas{addr: alloc.BlockAt(home), cfg: cfg}
}

// Acquire implements cpu.Lock, executing exactly the paper's Algorithm 1:
// spin on a locally cached copy of the lock word (LD + BNEZ) and race an
// atomic SWAP to the home whenever it reads available. Every release
// recalls the spinning copies, so each handoff triggers a refill burst
// followed by a SWAP storm — the losing SWAPs are the in-flight GetX
// requests iNPG stops and early-invalidates.
func (l *tas) Acquire(t *cpu.Thread, done func()) {
	w := waiter(&l.waiters, t, l.cfg.Threads, l.bind)
	w.done = done
	w.poll()
}

// bind builds t's acquire loop.
func (l *tas) bind(t *cpu.Thread) *tasWaiter {
	w := &tasWaiter{}
	w.poll = func() { t.Port.Load(l.addr, true, t.LockPrio(), w.polled) }
	w.polled = func(v uint64) {
		if v != 0 {
			spinAgain(t, l.cfg, w.poll)
			return
		}
		t.Port.Atomic(l.addr, coherence.Swap, 1, 0, t.LockPrio(), w.swapped)
	}
	w.swapped = func(old uint64) {
		if old == 0 {
			w.done()
			return
		}
		spinAgain(t, l.cfg, w.poll)
	}
	return w
}

// Release implements cpu.Lock.
func (l *tas) Release(t *cpu.Thread, done func()) {
	t.Port.StoreRelease(l.addr, 0, true, releasePrio(t), done)
}
