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
	waiters  []*qslWaiter // each thread's current waiter

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

// qslWaiter is one thread's continuations for its spin phase and its sleep
// episodes; the wait queue holds it while the thread sleeps. One waiter
// per thread serves every acquire and every sleep, with one exception:
// pending counts the continuations handed to the engine or the memory
// port that have not run yet, and a phase (an acquire, or a sleep
// episode) starts on a fresh waiter when the thread's waiter still has
// any. A late continuation — a wakeup that lost to the sleep probe, or a
// probe outliving its episode — therefore always sees the done callback
// and the woken/settled flags of the phase that issued it.
type qslWaiter struct {
	l       *qsl
	t       *cpu.Thread
	done    func()
	woken   bool // a release picked this waiter; wake is scheduled
	settled bool // the post-enqueue probe already acquired the lock
	// probing marks the probe's swap in flight; a switchedIn that finds
	// it so sets deferred and leaves the outcome to the probe, which
	// either acquires or resumes the deferred spin.
	probing, deferred bool
	pending           int

	poll, switchedOut, wake, switchedIn   func()
	polled, swapped, probed, probeSwapped func(uint64)

	// relDone completes the thread's release in progress; released runs
	// when its write-through is acknowledged.
	relDone, released func()
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
	w := waiter(&l.waiters, t, l.cfg.Threads, l.bind)
	if w.pending > 0 {
		w = l.bind(t)
		l.waiters[t.ID] = w
	}
	w.done = done
	l.spinStart[t.ID] = t.Eng().Now()
	w.spin()
}

// spin polls with atomic SWAPs until acquired or the retry budget is
// spent — OCOR embeds the remaining-times-of-retry priority directly in
// the SWAP request packets, so every retry is a swap. The budget is also
// bounded in time (spinBudget) so heavily delayed polls still yield the
// core at roughly the Linux-4.2 cadence, keeping the number of awake
// spinners small as in a real OS.
func (w *qslWaiter) spin() {
	l, t := w.l, w.t
	if t.RetriesUsed() >= l.cfg.QSLRetries ||
		t.Eng().Now()-l.spinStart[t.ID] >= l.spinBudget() {
		w.sleep()
		return
	}
	w.pending++
	t.Port.Load(l.addr, true, t.LockPrio(), w.polled)
}

// spinAgain schedules the next poll after a failed one.
func (w *qslWaiter) spinAgain() {
	w.pending++
	spinAgain(w.t, w.l.cfg, w.poll)
}

// sleep context-switches the thread out. Once switched out it parks on
// the wait queue, and one last probe closes the lost-wakeup race: if the
// lock was freed while we were switching out (and nobody was queued to be
// woken), grab it now instead of sleeping forever.
func (w *qslWaiter) sleep() {
	w.l.SleepsTaken++
	w.t.BeginSleep()
	w.pending++
	w.t.Eng().Schedule(w.l.cfg.CtxSwitch, w.switchedOut)
}

// bind builds a waiter for t.
func (l *qsl) bind(t *cpu.Thread) *qslWaiter {
	w := &qslWaiter{l: l, t: t}
	w.poll = func() {
		w.pending--
		w.spin()
	}
	w.polled = func(v uint64) {
		w.pending--
		if v != 0 {
			w.spinAgain()
			return
		}
		w.pending++
		t.Port.Atomic(l.addr, coherence.Swap, 1, 0, t.LockPrio(), w.swapped)
	}
	w.swapped = func(old uint64) {
		w.pending--
		if old == 0 {
			w.done()
			return
		}
		w.spinAgain()
	}
	w.switchedOut = func() {
		w.pending--
		s := w
		if w.pending > 0 {
			s = l.bind(t)
			s.done = w.done
			l.waiters[t.ID] = s
		}
		s.woken, s.settled = false, false
		l.sleepers = append(l.sleepers, s)
		s.pending++
		t.Port.Load(l.addr, true, 0, s.probed)
	}
	w.probed = func(v uint64) {
		w.pending--
		if w.woken || v != 0 {
			return // a holder exists or a wakeup is already scheduled
		}
		w.pending++
		w.probing = true
		t.Port.Atomic(l.addr, coherence.Swap, 1, 0, 0, w.probeSwapped)
	}
	w.probeSwapped = func(old uint64) {
		w.pending--
		deferred := w.deferred
		w.probing, w.deferred = false, false
		if old != 0 {
			if deferred {
				w.resume() // a release woke us while the swap flew
			}
			return // lost the probe; a release will wake us
		}
		// Acquired on the probe: leave the queue (if a release raced and
		// popped us, wake no-ops via settled).
		w.settled = true
		l.remove(w)
		t.EndSleep()
		t.ResetRetries()
		w.done()
	}
	w.wake = func() {
		w.pending--
		if w.settled {
			return // the probe already acquired; nothing to resume
		}
		w.pending++
		t.Eng().Schedule(l.cfg.CtxSwitch, w.switchedIn)
	}
	w.switchedIn = func() {
		w.pending--
		if w.settled {
			return // the probe acquired while we switched back in
		}
		if w.probing {
			// Spinning now would race the probe's swap: if the probe won,
			// both would complete this acquire.
			w.deferred = true
			return
		}
		w.resume()
	}
	w.released = func() {
		if n := len(l.sleepers); n > 0 {
			s := l.sleepers[0]
			copy(l.sleepers, l.sleepers[1:])
			l.sleepers[n-1] = nil
			l.sleepers = l.sleepers[:n-1]
			s.woken = true
			s.pending++
			t.Eng().Schedule(l.cfg.Wakeup, s.wake)
		}
		w.relDone()
	}
	return w
}

// resume returns a woken thread to its spin phase with a fresh budget.
func (w *qslWaiter) resume() {
	w.t.EndSleep()
	w.t.ResetRetries()
	w.l.spinStart[w.t.ID] = w.t.Eng().Now()
	w.spin()
}

// remove deletes a waiter from the queue.
func (l *qsl) remove(w *qslWaiter) {
	for i, x := range l.sleepers {
		if x == w {
			n := copy(l.sleepers[i:], l.sleepers[i+1:])
			l.sleepers[i+n] = nil
			l.sleepers = l.sleepers[:i+n]
			return
		}
	}
}

// Release implements cpu.Lock: the write-through frees the lock, then the
// head of the wait queue, if any, is woken.
func (l *qsl) Release(t *cpu.Thread, done func()) {
	w := waiter(&l.waiters, t, l.cfg.Threads, l.bind)
	w.relDone = done
	t.Port.StoreRelease(l.addr, 0, true, releasePrio(t), w.released)
}
