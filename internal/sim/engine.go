// Package sim provides the deterministic cycle-driven simulation engine
// that underlies the whole iNPG reproduction: a global clock, tickable
// components, a future-event scheduler (a timing wheel for the next
// wheelSpan cycles, a heap beyond it) and a seeded random number source.
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
// The tick set is a bitset, one bit per handle, with a summary bit per
// nonzero 64-bit word. A pass walks the summary words and visits only the
// set bits of the words they mark, so a stepped cycle costs
// O(tickers/4096 + awake words + awake) rather than one check per
// registered component: a large, mostly idle mesh pays for the components
// that work.
//
// # Events
//
// Events due within wheelSpan cycles sit in a timing wheel: one FIFO
// chain per cycle, linked through a node slab with a free list, so
// scheduling and firing are O(1) and allocate nothing once the slab has
// grown to the peak number pending. Later events wait in a (cycle,
// schedule order) heap and move into their cycle's chain at the start of
// the step in which that cycle enters the span — before anything can
// schedule there — so every cycle's events still fire in schedule order.
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

// wheelSpan is the timing wheel's span in cycles: an event due less than
// wheelSpan cycles after the current cycle goes into the wheel, a later one
// into the far heap. A power of two, and a whole number of bitmap words.
const wheelSpan = 256

// wheelNode is one scheduled callback in the wheel's node slab. next links
// the node into its cycle's chain, or into the free list; 0 ends either.
type wheelNode struct {
	fn   func()
	next int32
}

// event is a scheduled callback beyond the wheel's span.
type event struct {
	at  Cycle
	seq uint64 // tie-break so same-cycle events fire in schedule order
	fn  func()
}

// eventHeap is a min-heap of far events ordered by (at, seq).
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
	summary []uint64 // bit w%64 of word w/64 is set while awake[w] != 0
	nAwake  int
	rng     *rand.Rand

	// The timing wheel: the chain of cycle c runs from head[c%wheelSpan]
	// to tail[c%wheelSpan] through nodes (node 0 is unused, so 0 means
	// none), and bit b of used is set while chain b is nonempty. free heads
	// the chain of released nodes; nWheel counts the scheduled ones.
	head, tail [wheelSpan]int32
	used       [wheelSpan / 64]uint64
	nodes      []wheelNode
	free       int32
	nWheel     int

	// far holds the events due wheelSpan or more cycles after the cycle
	// they were scheduled in, until their cycle enters the span.
	far eventHeap
	seq uint64

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

// eventSlabPrealloc sizes the wheel's initial node slab. At most 73
// events are pending at once on the Table 1 platform (seeds 1–8 of the
// throughput benchmark) and 258–262 on the 16×16 TTL and 32×32 QSL
// benchmark meshes (thread wakeups, DRAM completions, NI deliveries);
// starting above that bound avoids the doubling reallocations of a cold
// slab on every run.
const eventSlabPrealloc = 1024

// NewEngine returns an engine with its clock at cycle 0 and a deterministic
// random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:   NewRand(seed),
		nodes: make([]wheelNode, 1, eventSlabPrealloc),
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
		for h := range e.tickers {
			e.Wake(Handle(h))
		}
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
		if h%(64*64) == 0 {
			e.summary = append(e.summary, 0)
		}
		e.awake = append(e.awake, 0)
	}
	e.Wake(Handle(h))
	return Handle(h)
}

// Wake puts the component back into the per-cycle tick set. Idempotent.
// Anyone handing work to a possibly-sleeping component must call it.
func (e *Engine) Wake(h Handle) {
	w, bit := h/64, uint64(1)<<(h%64)
	if e.awake[w]&bit == 0 {
		e.awake[w] |= bit
		e.summary[w/64] |= 1 << (w % 64)
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
		if e.awake[w] &^= bit; e.awake[w] == 0 {
			e.summary[w/64] &^= 1 << (w % 64)
		}
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
	e.schedule(e.now+1+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute cycle at. Scheduling at or
// before the current cycle fires on the next cycle.
func (e *Engine) ScheduleAt(at Cycle, fn func()) {
	if at <= e.now {
		e.Schedule(0, fn)
		return
	}
	e.schedule(at, fn)
}

// schedule files fn for cycle at > now: at the end of cycle at's chain
// when at is inside the span, in the far heap otherwise. The current
// cycle's step already moved every far event due inside the span into the
// wheel, so appending keeps each chain in schedule order.
func (e *Engine) schedule(at Cycle, fn func()) {
	if at-e.now >= wheelSpan {
		e.seq++
		e.far.push(event{at: at, seq: e.seq, fn: fn})
		return
	}
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
		e.nodes[i] = wheelNode{fn: fn}
	} else {
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, wheelNode{fn: fn})
	}
	b := at % wheelSpan
	if t := e.tail[b]; t != 0 {
		e.nodes[t].next = i
	} else {
		e.head[b] = i
		e.used[b/64] |= 1 << (b % 64)
	}
	e.tail[b] = i
	e.nWheel++
}

// nextEvent returns the cycle of the earliest pending event, which must
// exist. Between steps the wheel holds only cycles now+1 … now+wheelSpan-1
// and the far heap only later ones, so a wheel event, if any, comes first:
// the first nonempty chain at or after now+1, found by a circular scan of
// the used bitmap.
func (e *Engine) nextEvent() Cycle {
	if e.nWheel == 0 {
		return e.far[0].at
	}
	start := int((e.now + 1) % wheelSpan)
	for k := 0; k <= len(e.used); k++ {
		w := (start/64 + k) % len(e.used)
		m := e.used[w]
		if k == 0 {
			m &^= 1<<(start%64) - 1 // chains before start wait for the last pass
		}
		if m != 0 {
			b := w*64 + bits.TrailingZeros64(m)
			return e.now + 1 + Cycle((b-start+wheelSpan)%wheelSpan)
		}
	}
	panic("sim: wheel count and bitmap disagree")
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
// one predictable comparison per cycle. Wall-clock deadlines ride on this
// hook (see inpg.Config.WallTimeBudget).
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
// Before anything fires, every far event whose cycle has entered the span
// moves to the end of its chain. Nothing can have scheduled into that
// cycle yet — the span reached it only now — so the chain keeps schedule
// order. The current cycle's chain then fires front to back; callbacks
// schedule only into later cycles, never onto it.
//
// The pass finds set bits word by word, through the summary words. After
// each tick it re-reads the current word and masks off every bit at or
// below the one just ticked, and after each word it re-reads the summary
// word the same way, so a wake from a lower index is seen in this pass
// while wakes of already-passed indices wait for the next cycle.
func (e *Engine) Step() {
	e.now++
	for len(e.far) > 0 && e.far[0].at-e.now < wheelSpan {
		ev := e.far.pop()
		e.schedule(ev.at, ev.fn) // inside the span now: onto its chain
	}
	if b := e.now % wheelSpan; e.head[b] != 0 {
		for i := e.head[b]; i != 0; i = e.head[b] {
			n := &e.nodes[i]
			fn := n.fn
			e.head[b] = n.next
			n.next = e.free
			e.free = i
			e.nWheel--
			fn()
		}
		e.tail[b] = 0
		e.used[b/64] &^= 1 << (b % 64)
	}
	if e.nAwake == len(e.tickers) {
		for _, t := range e.tickers {
			t.Tick(e.now)
		}
		return
	}
	for s := range e.summary {
		for sw := e.summary[s]; sw != 0; {
			j := bits.TrailingZeros64(sw)
			w := s*64 + j
			for word := e.awake[w]; word != 0; {
				b := bits.TrailingZeros64(word)
				e.tickers[w*64+b].Tick(e.now)
				word = e.awake[w] &^ (uint64(2)<<b - 1)
			}
			sw = e.summary[s] &^ (uint64(2)<<j - 1)
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
			if e.PendingEvents() > 0 {
				if at := e.nextEvent(); at < next {
					next = at
				}
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
func (e *Engine) PendingEvents() int { return e.nWheel + len(e.far) }
