// Package cpu models the cores of the target many-core: one thread per
// core executing the canonical multi-threaded program shape of the paper's
// Figure 1 — parallel compute, then serialized critical-section access
// through a lock, repeated — over asynchronous memory operations issued to
// the node's L1 controller.
//
// Threads account their time into the three phases the paper profiles
// (parallel, competition overhead COH, critical-section execution CSE; the
// queue spin-lock's sleep time is a sub-phase of COH), which the stats and
// experiment layers aggregate into Figures 2, 8, 9, 11 and 12.
package cpu

import (
	"math/rand"

	"inpg/internal/coherence"
	"inpg/internal/sim"
)

// MemPort is the core-facing interface of the L1 cache controller
// (implemented by coherence.L1). All operations complete asynchronously.
type MemPort interface {
	Load(addr uint64, lock bool, priority int, cb func(uint64))
	Store(addr uint64, val uint64, lock bool, priority int, cb func())
	// StoreRelease is a synchronization store: written through to the home
	// node, which recalls all cached copies (the paper's lock release).
	StoreRelease(addr uint64, val uint64, lock bool, priority int, cb func())
	Atomic(addr uint64, op coherence.AtomicOp, a, b uint64, priority int, cb func(old uint64))
}

// Lock is a critical-section lock primitive (implementations live in
// internal/lock). Acquire and Release complete asynchronously and may
// issue any number of memory operations through the thread's port.
type Lock interface {
	Acquire(t *Thread, done func())
	Release(t *Thread, done func())
	// Name returns the primitive's short name (TAS, TTL, ABQL, MCS, QSL).
	Name() string
}

// Phase classifies what a thread is doing, for time accounting.
type Phase int

// Thread phases. Sleep is the queue spin-lock's blocked state and counts
// as competition overhead in paper-style breakdowns.
const (
	PhaseInit Phase = iota
	PhaseParallel
	PhaseCOH
	PhaseSleep
	PhaseCSE
	PhaseDone
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseInit:
		return "init"
	case PhaseParallel:
		return "parallel"
	case PhaseCOH:
		return "coh"
	case PhaseSleep:
		return "sleep"
	case PhaseCSE:
		return "cse"
	case PhaseDone:
		return "done"
	}
	return "?"
}

// PhaseBreakdown accumulates cycles per phase.
type PhaseBreakdown struct {
	Parallel, COH, Sleep, CSE uint64
}

// COHTotal returns competition overhead including sleep time.
func (b PhaseBreakdown) COHTotal() uint64 { return b.COH + b.Sleep }

// Total returns all accounted cycles.
func (b PhaseBreakdown) Total() uint64 { return b.Parallel + b.COH + b.Sleep + b.CSE }

// Program is the per-thread workload script: CSCount critical sections,
// each preceded by a parallel-compute span and containing CSCycles of
// work. The closures draw from the thread's deterministic RNG.
type Program struct {
	CSCount        int
	CSCycles       func(r *rand.Rand) sim.Cycle
	ParallelCycles func(r *rand.Rand) sim.Cycle
}

// Thread is one software thread pinned to one core.
type Thread struct {
	ID   int
	eng  *sim.Engine
	Port MemPort
	lock Lock
	prog Program
	rng  *rand.Rand

	// OCOR enables remaining-times-of-retry priority on lock requests.
	OCOR bool
	// QSLRetries is the spin budget before the queue spin-lock sleeps; it
	// also scales the OCOR priority mapping (16 retries per level).
	QSLRetries int
	// retriesUsed counts failed polls in the current acquire.
	retriesUsed int
	// woken marks a thread re-acquiring after a wakeup (lowest priority).
	woken bool

	phase      Phase
	phaseStart sim.Cycle
	Breakdown  PhaseBreakdown

	CSCompleted  int
	AcquireCount int
	SleepCount   int

	// PhaseHook, when set, observes every phase transition (Figure 9
	// timelines).
	PhaseHook func(t *Thread, now sim.Cycle, from, to Phase)

	onDone func(*Thread)
	done   bool

	// iter is the critical-section iteration in progress. The program
	// steps through the continuations below, bound once by Start.
	iter                               int
	contend, acquired, leave, released func()
}

// New builds a thread on core id driving port, synchronizing on lock.
func New(eng *sim.Engine, id int, port MemPort, lock Lock, prog Program, seed int64) *Thread {
	return &Thread{
		ID:         id,
		eng:        eng,
		Port:       port,
		lock:       lock,
		prog:       prog,
		rng:        sim.NewRand(seed),
		QSLRetries: 128,
	}
}

// SetOnDone registers a completion callback.
func (t *Thread) SetOnDone(fn func(*Thread)) { t.onDone = fn }

// Done reports whether the thread finished its program.
func (t *Thread) Done() bool { return t.done }

// Phase returns the thread's current phase.
func (t *Thread) Phase() Phase { return t.phase }

// PhaseStart returns the cycle the current phase began, for stall
// diagnostics.
func (t *Thread) PhaseStart() sim.Cycle { return t.phaseStart }

// Rand exposes the thread's deterministic RNG (lock backoff jitter).
func (t *Thread) Rand() *rand.Rand { return t.rng }

// Eng exposes the engine for lock implementations.
func (t *Thread) Eng() *sim.Engine { return t.eng }

// Start launches the thread at the current cycle.
func (t *Thread) Start() {
	t.bind()
	t.phaseStart = t.eng.Now()
	t.setPhase(PhaseParallel)
	t.iter = 0
	t.iterate()
}

// bind builds the program's continuations: parallel work, then compete
// for the lock, run the critical section and release it before the next
// iteration.
func (t *Thread) bind() {
	t.contend = func() {
		t.setPhase(PhaseCOH)
		t.retriesUsed = 0
		t.woken = false
		t.AcquireCount++
		t.lock.Acquire(t, t.acquired)
	}
	t.acquired = func() {
		t.setPhase(PhaseCSE)
		t.compute(t.prog.CSCycles(t.rng), t.leave)
	}
	t.leave = func() { t.lock.Release(t, t.released) }
	t.released = func() {
		t.CSCompleted++
		t.setPhase(PhaseParallel)
		t.iter++
		t.iterate()
	}
}

// iterate runs critical-section iteration t.iter.
func (t *Thread) iterate() {
	if t.iter >= t.prog.CSCount {
		t.setPhase(PhaseDone)
		t.done = true
		if t.onDone != nil {
			t.onDone(t)
		}
		return
	}
	t.compute(t.prog.ParallelCycles(t.rng), t.contend)
}

// compute burns cycles of local work.
func (t *Thread) compute(c sim.Cycle, next func()) {
	if c == 0 {
		t.eng.Schedule(0, next)
		return
	}
	t.eng.Schedule(c-1, next)
}

// setPhase closes the current phase's accounting and opens the next.
func (t *Thread) setPhase(p Phase) {
	now := t.eng.Now()
	d := uint64(now - t.phaseStart)
	switch t.phase {
	case PhaseParallel:
		t.Breakdown.Parallel += d
	case PhaseCOH:
		t.Breakdown.COH += d
	case PhaseSleep:
		t.Breakdown.Sleep += d
	case PhaseCSE:
		t.Breakdown.CSE += d
	}
	if p != t.phase {
		// A phase transition is liveness progress: threads stuck spinning on
		// an unreachable lock stop transitioning, which the engine's watchdog
		// detects.
		t.eng.NoteProgress()
		if t.PhaseHook != nil {
			t.PhaseHook(t, now, t.phase, p)
		}
	}
	t.phase = p
	t.phaseStart = now
}

// BeginSleep moves a QSL thread into the sleep sub-phase.
func (t *Thread) BeginSleep() {
	t.SleepCount++
	t.setPhase(PhaseSleep)
}

// EndSleep returns a woken thread to the competition phase with wakeup
// (lowest) priority.
func (t *Thread) EndSleep() {
	t.woken = true
	t.setPhase(PhaseCOH)
}

// CountRetry records one failed lock poll.
func (t *Thread) CountRetry() { t.retriesUsed++ }

// RetriesUsed reports failed polls in the current acquire.
func (t *Thread) RetriesUsed() int { return t.retriesUsed }

// ResetRetries restarts the spin budget (after a QSL wakeup).
func (t *Thread) ResetRetries() { t.retriesUsed = 0 }

// LockPrio computes the OCOR arbitration priority for the thread's next
// lock request packet: 9 levels, the lowest (0) for wakeup requests and
// levels 1-8 for spinning threads mapped from the remaining times of
// retry, 16 retries per level — the closer a thread is to sleeping, the
// higher its priority.
func (t *Thread) LockPrio() int {
	if !t.OCOR {
		return 0
	}
	if t.woken {
		return 0
	}
	per := t.QSLRetries / 8
	if per == 0 {
		per = 1
	}
	lvl := 1 + t.retriesUsed/per
	if lvl > 8 {
		lvl = 8
	}
	return lvl
}
