package lock

import (
	"inpg/internal/coherence"
	"inpg/internal/cpu"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

// qsl is the queue spin-lock of modern OSes (Linux 4.2 default): a bounded
// spin phase on the lock word — 128 retries by default — after which the
// thread context-switches out and sleeps on a software wait queue; the
// releasing holder wakes the queue head, which re-competes at the lowest
// OCOR priority. Sleeping frees the core but costs two context switches
// plus the wakeup latency, which is exactly the overhead OCOR tries to
// dodge by prioritizing nearly-exhausted spinners.
//
// The in-kernel MCS queuing of the Linux implementation is approximated by
// the FIFO software wait queue; the spin phase polls the lock word
// (test-and-test-and-set), see DESIGN.md.
type qsl struct {
	addr     uint64
	cfg      Config
	sleepers []*qslWaiter

	// spinStart marks when each thread's current spin phase began; the
	// retry budget is measured against it in nominal poll iterations.
	spinStart []sim.Cycle

	// SleepsTaken counts threads entering the sleep phase (OCOR's target).
	SleepsTaken uint64
}

// spinBudget converts the 128-retry budget into cycles of spinning: a
// retry iteration on a locally cached copy costs the poll interval plus
// the L1 hit, so the budget drains in roughly a thousand cycles whether
// or not invalidation storms slow individual polls down.
func (l *qsl) spinBudget() sim.Cycle {
	return sim.Cycle(l.cfg.QSLRetries) * (l.cfg.SpinInterval + 4)
}

type qslWaiter struct {
	t       *cpu.Thread
	wake    func()
	woken   bool // a release picked this waiter; wake is scheduled
	settled bool // the post-enqueue probe already acquired the lock
}

func newQSL(alloc *AddrAlloc, home noc.NodeID, cfg Config) *qsl {
	return &qsl{
		addr:      alloc.BlockAt(home),
		cfg:       cfg,
		spinStart: make([]sim.Cycle, cfg.Threads),
	}
}

// Name implements cpu.Lock.
func (l *qsl) Name() string { return "QSL" }

// Acquire implements cpu.Lock.
func (l *qsl) Acquire(t *cpu.Thread, done func()) {
	l.spinStart[t.ID] = t.Eng().Now()
	l.spinPhase(t, done)
}

// spinPhase polls with atomic SWAPs until acquired or the retry budget is
// spent — OCOR embeds the remaining-times-of-retry priority directly in
// the SWAP request packets, so every retry is a swap. The budget is also
// bounded in time (spinBudget) so heavily delayed polls still yield the
// core at roughly the Linux-4.2 cadence, keeping the number of awake
// spinners small as in a real OS.
func (l *qsl) spinPhase(t *cpu.Thread, done func()) {
	var poll func()
	poll = func() {
		if t.RetriesUsed() >= l.cfg.QSLRetries ||
			t.Eng().Now()-l.spinStart[t.ID] >= l.spinBudget() {
			l.sleep(t, done)
			return
		}
		t.Port.Load(l.addr, true, t.LockPrio(), func(v uint64) {
			if v != 0 {
				spinAgain(t, l.cfg, poll)
				return
			}
			t.Port.Atomic(l.addr, coherence.Swap, 1, 0, t.LockPrio(), func(old uint64) {
				if old == 0 {
					done()
					return
				}
				spinAgain(t, l.cfg, poll)
			})
		})
	}
	poll()
}

// sleep context-switches the thread out and parks it on the wait queue.
// After enqueueing, one last probe closes the lost-wakeup race: if the
// lock was freed while we were switching out (and nobody was queued to be
// woken), grab it now instead of sleeping forever.
func (l *qsl) sleep(t *cpu.Thread, done func()) {
	l.SleepsTaken++
	t.BeginSleep()
	t.Eng().Schedule(l.cfg.CtxSwitch, func() {
		w := &qslWaiter{t: t}
		w.wake = func() {
			if w.settled {
				return // the probe already acquired; nothing to resume
			}
			t.Eng().Schedule(l.cfg.CtxSwitch, func() {
				if w.settled {
					return // the probe acquired while we switched back in
				}
				t.EndSleep()
				t.ResetRetries()
				l.spinStart[t.ID] = t.Eng().Now()
				l.spinPhase(t, done)
			})
		}
		l.sleepers = append(l.sleepers, w)
		t.Port.Load(l.addr, true, 0, func(v uint64) {
			if w.woken || v != 0 {
				return // a holder exists or a wakeup is already scheduled
			}
			t.Port.Atomic(l.addr, coherence.Swap, 1, 0, 0, func(old uint64) {
				if old != 0 {
					return // lost the probe; a release will wake us
				}
				// Acquired on the probe: leave the queue (if a release
				// raced and popped us, wake() no-ops via settled).
				w.settled = true
				l.remove(w)
				t.EndSleep()
				t.ResetRetries()
				done()
			})
		})
	})
}

// remove deletes a waiter from the queue.
func (l *qsl) remove(w *qslWaiter) {
	for i, x := range l.sleepers {
		if x == w {
			l.sleepers = append(l.sleepers[:i], l.sleepers[i+1:]...)
			return
		}
	}
}

// Release implements cpu.Lock.
func (l *qsl) Release(t *cpu.Thread, done func()) {
	t.Port.StoreRelease(l.addr, 0, true, releasePrio(t), func() {
		if len(l.sleepers) > 0 {
			w := l.sleepers[0]
			l.sleepers = l.sleepers[1:]
			w.woken = true
			t.Eng().Schedule(l.cfg.Wakeup, w.wake)
		}
		done()
	})
}
