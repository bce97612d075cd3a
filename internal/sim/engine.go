// Package sim provides the deterministic cycle-driven simulation engine
// that underlies the whole iNPG reproduction: a global clock, tickable
// components, a lightweight future-event scheduler and a seeded random
// number source.
//
// The engine is strictly single-threaded. Every component in the active
// set is ticked once per cycle in registration order, which makes runs
// bit-reproducible for a given seed and configuration. Components that
// need to act at a future cycle (timeouts, DRAM completions, thread
// wake-ups) use Schedule instead of busy-ticking.
//
// # Activity-driven scheduling
//
// Ticking every component every cycle wastes most of the work on a
// quiescent chip (threads in backoff, everyone waiting on a DRAM event).
// Register therefore returns a Handle through which a component can take
// itself out of the per-cycle tick set with Sleep and be put back with
// Wake. The contract is:
//
//   - A component may call Sleep only on itself, and only when ticking it
//     would be a no-op for every future cycle until one of its wake
//     conditions occurs (no buffered work, no pending input).
//   - Whoever hands a sleeping component new work — a neighbouring
//     component, an event callback, an injection path — must call Wake.
//     Wake and Sleep are idempotent.
//   - Components that never call Sleep are permanently active: Register
//     leaves every component awake, so the protocol is strictly opt-in
//     and plain busy tickers keep their historical behaviour.
//
// Awake components still tick in registration-index order, and a
// component woken during a tick pass by a lower-index component is ticked
// in the same pass — exactly the cycle it would have ticked had it never
// slept. Runs under activity-driven scheduling are therefore
// bit-identical to always-tick runs as long as components honour the
// sleep contract; SetAlwaysTick(true) disables the protocol entirely to
// check precisely that (see the differential tests at the repository
// root).
//
// The tick set is a bitset, one bit per handle. A pass walks it a 64-bit
// word at a time and visits only the set bits, so a stepped cycle costs
// O(tickers/64 + awake) rather than one check per registered component:
// a large, mostly idle mesh pays for the components that work.
//
// When the active set is empty, Run fast-forwards the clock directly to
// the next scheduled event instead of stepping through empty cycles.
// Run's cond must therefore be a function of simulation state (which only
// changes on event or tick activity), not of wall-clock-like inspection
// of Now() at cycles where nothing runs; every caller in this repository
// satisfies that, keeping fast-forwarded runs cycle-exact.
package sim

import (
	"math/bits"
	"math/rand"
)

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Ticker is a component that acts once per simulated cycle while awake.
//
// Tick is called with the current cycle. Components must not assume any
// particular ordering relative to other components beyond what the system
// wiring guarantees (messages sent during cycle N are visible at their
// destination no earlier than cycle N+1).
type Ticker interface {
	Tick(now Cycle)
}

// TickFunc adapts a plain function to the Ticker interface.
type TickFunc func(now Cycle)

// Tick implements Ticker.
func (f TickFunc) Tick(now Cycle) { f(now) }

// Handle identifies a registered component to Wake and Sleep. Handles are
// dense indices issued by Register in registration order.
type Handle int

// event is a scheduled callback.
type event struct {
	at  Cycle
	seq uint64 // tie-break so same-cycle events fire in schedule order
	fn  func()
}

// eventHeap is a min-heap of events ordered by (at, seq).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// Engine drives the simulation: it advances the clock, ticks awake
// components and fires scheduled events.
type Engine struct {
	now     Cycle
	tickers []Ticker
	awake   []uint64 // bit h%64 of word h/64 is set while handle h is awake
	nAwake  int
	events  eventHeap
	seq     uint64
	rng     *rand.Rand

	// alwaysTick disables activity-driven scheduling: Sleep becomes a
	// no-op and Run never fast-forwards. The reference mode differential
	// tests compare against.
	alwaysTick bool

	// Stopped is set by Stop; Run loops exit at the end of the current
	// cycle once it is set.
	stopped bool

	// failErr is set by Fail: a component-reported fatal error (e.g. a
	// coherence protocol violation) that the current Run returns instead
	// of panicking mid-callback.
	failErr error

	// watchWindow, when nonzero, arms the liveness watchdog: Run returns a
	// *StallError once watchWindow cycles elapse with no NoteProgress.
	// lastProgressAt is the cycle progress was last noted.
	watchWindow    Cycle
	lastProgressAt Cycle

	// abortCheck, when non-nil, is the cooperative-cancellation hook: Run
	// invokes it every abortEvery cycles and returns an *AbortError around
	// whatever error it reports. nextAbortAt is the next cycle it is due.
	abortCheck  func() error
	abortEvery  Cycle
	nextAbortAt Cycle
}

// eventHeapPrealloc sizes the event heap's initial backing array. A full
// Table 1 platform keeps a few hundred events outstanding (thread wakeups,
// DRAM completions, NI deliveries); starting near that bound avoids the
// doubling reallocations of a cold heap on every run.
const eventHeapPrealloc = 1024

// NewEngine returns an engine with its clock at cycle 0 and a deterministic
// random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:    NewRand(seed),
		events: make(eventHeap, 0, eventHeapPrealloc),
	}
}

// Now returns the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SetAlwaysTick, when on, makes every registered component tick every
// cycle regardless of Sleep calls and disables Run's idle fast-forward —
// the pre-activity-scheduling engine behaviour. It exists to validate
// that activity-driven runs are bit-identical to always-tick runs.
func (e *Engine) SetAlwaysTick(on bool) {
	e.alwaysTick = on
	if on {
		for w := range e.awake {
			e.awake[w] = ^uint64(0)
		}
		if r := len(e.tickers) % 64; r != 0 {
			e.awake[len(e.awake)-1] = 1<<r - 1
		}
		e.nAwake = len(e.tickers)
	}
}

// Register adds a component to the tick list and returns its handle.
// Components are ticked in registration order and start awake.
func (e *Engine) Register(t Ticker) Handle {
	if t == nil {
		panic("sim: Register(nil)")
	}
	h := len(e.tickers)
	e.tickers = append(e.tickers, t)
	if h%64 == 0 {
		e.awake = append(e.awake, 0)
	}
	e.awake[h/64] |= 1 << (h % 64)
	e.nAwake++
	return Handle(h)
}

// Wake puts the component back into the per-cycle tick set. Idempotent.
// Anyone handing work to a possibly-sleeping component must call it.
func (e *Engine) Wake(h Handle) {
	w, bit := h/64, uint64(1)<<(h%64)
	if e.awake[w]&bit == 0 {
		e.awake[w] |= bit
		e.nAwake++
	}
}

// Sleep drops the component from the per-cycle tick set until the next
// Wake. Idempotent; a no-op in always-tick mode. A component may only
// sleep itself, and only when ticking it would remain a no-op until a
// wake condition occurs.
func (e *Engine) Sleep(h Handle) {
	if e.alwaysTick {
		return
	}
	w, bit := h/64, uint64(1)<<(h%64)
	if e.awake[w]&bit != 0 {
		e.awake[w] &^= bit
		e.nAwake--
	}
}

// Awake reports whether the component is in the tick set (tests,
// diagnostics).
func (e *Engine) Awake(h Handle) bool { return e.awake[h/64]&(1<<(h%64)) != 0 }

// ActiveTickers reports the current size of the tick set (tests,
// diagnostics).
func (e *Engine) ActiveTickers() int { return e.nAwake }

// Schedule arranges for fn to run delay cycles from now, before the tickers
// of that cycle. A delay of 0 fires at the start of the next cycle: the
// current cycle's tick pass is never re-entered.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	if fn == nil {
		panic("sim: Schedule(nil)")
	}
	e.seq++
	e.events.push(event{at: e.now + 1 + delay, seq: e.seq, fn: fn})
}

// ScheduleAt arranges for fn to run at absolute cycle at. Scheduling at or
// before the current cycle fires on the next cycle.
func (e *Engine) ScheduleAt(at Cycle, fn func()) {
	if at <= e.now {
		e.Schedule(0, fn)
		return
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// Stop requests that the current Run loop exit at the end of this cycle.
func (e *Engine) Stop() { e.stopped = true }

// Fail records a fatal component error and stops the run: the current Run
// call returns err instead of a panic unwinding through the tick pass.
// Protocol controllers use it for "impossible" message sequences so a
// corrupted simulation dies with a typed, diagnosable error. The first
// failure wins; later ones are dropped.
func (e *Engine) Fail(err error) {
	if err == nil {
		panic("sim: Fail(nil)")
	}
	if e.failErr == nil {
		e.failErr = err
	}
	e.stopped = true
}

// NoteProgress marks the current cycle as having made forward progress
// toward simulation completion — a packet delivery, a coherence transaction
// boundary, a thread phase change. The liveness watchdog (SetWatchdog)
// trips when a full window passes without one.
func (e *Engine) NoteProgress() { e.lastProgressAt = e.now }

// SetWatchdog arms (window > 0) or disarms (window == 0) the liveness
// watchdog and restarts its window at the current cycle. While armed, Run
// returns a *StallError as soon as window cycles elapse with no
// NoteProgress — long before any outer cycle budget — so callers can dump
// the wedged state.
func (e *Engine) SetWatchdog(window Cycle) {
	e.watchWindow = window
	e.lastProgressAt = e.now
}

// WatchdogWindow returns the armed watchdog window (0 when disarmed).
func (e *Engine) WatchdogWindow() Cycle { return e.watchWindow }

// SetAbortCheck installs (fn != nil) or removes (fn == nil) the
// cooperative-cancellation hook: while a Run loop is active, fn is invoked
// at most once every `every` cycles, and the first non-nil error it returns
// makes Run stop immediately with an *AbortError wrapping it. The check
// runs outside every component tick — simulation state is never consulted
// and never perturbed — and its coarse cadence keeps the hot-path cost to
// one predictable comparison per cycle. Wall-clock deadlines and
// context.Context cancellation ride on this hook (see inpg.System.AbortOn).
func (e *Engine) SetAbortCheck(every Cycle, fn func() error) {
	if every == 0 {
		every = 1
	}
	e.abortCheck = fn
	e.abortEvery = every
	e.nextAbortAt = e.now + every
}

// Step advances the simulation by exactly one cycle: the clock is
// incremented, due events fire (in schedule order), then every awake
// ticker runs in registration order. A component woken mid-pass by a
// lower-index component still ticks this cycle; one woken by a
// higher-index component ticks from the next cycle, matching when its
// first non-no-op tick would have landed under always-tick.
//
// The pass finds set bits word by word. After each tick it re-reads the
// current word and masks off every bit at or below the one just ticked,
// so a same-word wake from a lower index is seen in this pass while wakes
// of already-passed indices wait for the next cycle.
func (e *Engine) Step() {
	e.now++
	for len(e.events) > 0 && e.events[0].at <= e.now {
		ev := e.events.pop()
		ev.fn()
	}
	if e.nAwake == len(e.tickers) {
		for _, t := range e.tickers {
			t.Tick(e.now)
		}
		return
	}
	for w := range e.awake {
		for word := e.awake[w]; word != 0; {
			b := bits.TrailingZeros64(word)
			e.tickers[w*64+b].Tick(e.now)
			word = e.awake[w] &^ (uint64(2)<<b - 1)
		}
	}
}

// Run steps the engine until cond reports true (checked after each cycle),
// Stop is called, or maxCycles elapse. It returns the number of cycles
// executed and an error if the cycle budget was exhausted first.
//
// While the active tick set is empty the clock fast-forwards directly to
// the next scheduled event (or the budget boundary), skipping cycles in
// which nothing could run; cond is evaluated at every cycle where any
// event or tick fires, so state-driven conditions see the exact same
// cycles they would under always-tick stepping.
func (e *Engine) Run(maxCycles Cycle, cond func() bool) (Cycle, error) {
	start := e.now
	end := start + maxCycles
	e.stopped = false
	e.failErr = nil
	for e.now < end {
		if e.nAwake == 0 && !e.alwaysTick {
			next := end
			if len(e.events) > 0 && e.events[0].at < next {
				next = e.events[0].at
			}
			// The watchdog boundary caps the jump too: a fully quiescent
			// but wedged simulation must still trip at exactly
			// lastProgress+window instead of sailing to the budget bound.
			if e.watchWindow > 0 {
				if wd := e.lastProgressAt + e.watchWindow; wd < next {
					next = wd
				}
			}
			// Land one cycle short so the ordinary Step below performs
			// the event-firing cycle itself.
			if next > e.now+1 {
				e.now = next - 1
			}
		}
		e.Step()
		if e.failErr != nil {
			err := e.failErr
			e.failErr = nil
			return e.now - start, err
		}
		if e.stopped || (cond != nil && cond()) {
			return e.now - start, nil
		}
		if e.watchWindow > 0 && e.now-e.lastProgressAt >= e.watchWindow {
			return e.now - start, &StallError{Now: e.now, LastProgress: e.lastProgressAt, Window: e.watchWindow}
		}
		// Cooperative cancellation: coarse-grained so a healthy run pays one
		// comparison per cycle, yet an idle fast-forward (which jumps many
		// cycles in one iteration) still lands on a due check immediately.
		if e.abortCheck != nil && e.now >= e.nextAbortAt {
			e.nextAbortAt = e.now + e.abortEvery
			if aerr := e.abortCheck(); aerr != nil {
				return e.now - start, &AbortError{Now: e.now, Err: aerr}
			}
		}
	}
	return e.now - start, &BudgetError{Budget: maxCycles, Now: e.now}
}

// PendingEvents reports the number of scheduled events not yet fired.
// It is intended for tests and diagnostics.
func (e *Engine) PendingEvents() int { return len(e.events) }
