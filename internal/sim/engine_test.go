package sim

import (
	"errors"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// errAbortTest is the sentinel cause the abort-check tests report.
var errAbortTest = errors.New("abort test cause")

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
}

func TestStepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	for i := 1; i <= 5; i++ {
		e.Step()
		if e.Now() != Cycle(i) {
			t.Fatalf("after %d steps Now() = %d", i, e.Now())
		}
	}
}

func TestTickersRunEveryCycleInOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Register(TickFunc(func(Cycle) { order = append(order, 1) }))
	e.Register(TickFunc(func(Cycle) { order = append(order, 2) }))
	e.Step()
	e.Step()
	want := []int{1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleFiresAtRequestedCycle(t *testing.T) {
	e := NewEngine(1)
	var fired Cycle
	e.Schedule(4, func() { fired = e.Now() })
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if fired != 5 {
		t.Fatalf("fired at %d, want 5 (delay 4 from cycle 0 fires at start of cycle 5)", fired)
	}
}

func TestScheduleZeroFiresNextCycle(t *testing.T) {
	e := NewEngine(1)
	var fired Cycle
	e.Register(TickFunc(func(now Cycle) {
		if now == 3 {
			e.Schedule(0, func() { fired = e.Now() })
		}
	}))
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if fired != 4 {
		t.Fatalf("fired at %d, want 4", fired)
	}
}

func TestScheduleAtPastFiresNextCycle(t *testing.T) {
	e := NewEngine(1)
	e.Step()
	e.Step()
	var fired Cycle
	e.ScheduleAt(1, func() { fired = e.Now() })
	e.Step()
	if fired != 3 {
		t.Fatalf("fired at %d, want 3", fired)
	}
}

func TestSameCycleEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 16; i++ {
		i := i
		e.Schedule(2, func() { order = append(order, i) })
	}
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if len(order) != 16 {
		t.Fatalf("fired %d events, want 16", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestEventsBeforeTickers(t *testing.T) {
	e := NewEngine(1)
	var seen []string
	e.Register(TickFunc(func(now Cycle) {
		if now == 2 {
			seen = append(seen, "tick")
		}
	}))
	e.Schedule(1, func() { seen = append(seen, "event") }) // fires cycle 2
	e.Step()
	e.Step()
	if len(seen) != 2 || seen[0] != "event" || seen[1] != "tick" {
		t.Fatalf("seen = %v, want [event tick]", seen)
	}
}

func TestRunStopsOnCondition(t *testing.T) {
	// cond must be driven by simulation state (the engine only evaluates
	// it at cycles where events or ticks run), so the flag flips via a
	// scheduled event rather than by inspecting Now().
	e := NewEngine(1)
	done := false
	e.Schedule(6, func() { done = true }) // fires at cycle 7
	n, err := e.Run(100, func() bool { return done })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 7 || e.Now() != 7 {
		t.Fatalf("ran %d cycles to %d, want 7", n, e.Now())
	}
}

func TestRunBudgetExhausted(t *testing.T) {
	e := NewEngine(1)
	if _, err := e.Run(10, func() bool { return false }); err == nil {
		t.Fatal("Run should report budget exhaustion")
	}
}

func TestStopEndsRun(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickFunc(func(now Cycle) {
		if now == 3 {
			e.Stop()
		}
	}))
	n, err := e.Run(100, nil)
	if err != nil || n != 3 {
		t.Fatalf("ran %d cycles, err=%v; want 3, nil", n, err)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed must give identical random streams")
		}
	}
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register(nil) should panic")
		}
	}()
	NewEngine(1).Register(nil)
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) should panic")
		}
	}()
	NewEngine(1).Schedule(0, nil)
}

// countingTicker records the cycles it was ticked and can put itself to
// sleep after each tick.
type countingTicker struct {
	e         *Engine
	h         Handle
	ticks     []Cycle
	sleepEach bool
}

func (c *countingTicker) Tick(now Cycle) {
	c.ticks = append(c.ticks, now)
	if c.sleepEach {
		c.e.Sleep(c.h)
	}
}

func newCounting(e *Engine, sleepEach bool) *countingTicker {
	c := &countingTicker{e: e, sleepEach: sleepEach}
	c.h = e.Register(c)
	return c
}

func TestSleepDropsTickerUntilWake(t *testing.T) {
	e := NewEngine(1)
	c := newCounting(e, true)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if len(c.ticks) != 1 || c.ticks[0] != 1 {
		t.Fatalf("slept ticker ran at %v, want [1]", c.ticks)
	}
	if e.Awake(c.h) || e.ActiveTickers() != 0 {
		t.Fatalf("component still counted awake after Sleep")
	}
	// Re-wake: the component must tick again from the next cycle, then
	// drop out again after its one tick.
	e.Wake(c.h)
	for i := 0; i < 3; i++ {
		e.Step()
	}
	if len(c.ticks) != 2 || c.ticks[1] != 6 {
		t.Fatalf("re-woken ticker ran at %v, want [1 6]", c.ticks)
	}
}

func TestWakeFromEventCallbackTicksSameCycle(t *testing.T) {
	// Events fire before tickers, so a wake issued from an event callback
	// must tick the component in that same cycle — exactly when its first
	// productive tick would have landed under always-tick.
	e := NewEngine(1)
	c := newCounting(e, true)
	e.Schedule(9, func() { e.Wake(c.h) }) // fires at cycle 10
	for i := 0; i < 12; i++ {
		e.Step()
	}
	if len(c.ticks) != 2 || c.ticks[0] != 1 || c.ticks[1] != 10 {
		t.Fatalf("ticks = %v, want [1 10]", c.ticks)
	}
}

func TestRunFastForwardsIdleGapsToNextEvent(t *testing.T) {
	e := NewEngine(1)
	c := newCounting(e, true)
	fired := false
	e.Schedule(999, func() { fired = true }) // fires at cycle 1000
	n, err := e.Run(5000, func() bool { return fired })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 1000 || e.Now() != 1000 {
		t.Fatalf("ran %d cycles to %d, want exactly 1000", n, e.Now())
	}
	if len(c.ticks) != 1 {
		t.Fatalf("idle ticker ran %d times during fast-forward, want 1", len(c.ticks))
	}
}

func TestScheduleDuringFastForward(t *testing.T) {
	// An event fired at a fast-forwarded cycle schedules a follow-up; the
	// follow-up must fire at its exact cycle, not be skipped by a stale
	// jump target.
	e := NewEngine(1)
	var fired []Cycle
	done := false
	e.Schedule(99, func() {
		fired = append(fired, e.Now())
		e.Schedule(49, func() {
			fired = append(fired, e.Now())
			done = true
		})
	})
	n, err := e.Run(10_000, func() bool { return done })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 150 || len(fired) != 2 || fired[0] != 100 || fired[1] != 150 {
		t.Fatalf("ran %d cycles, events at %v; want 150 cycles, events [100 150]", n, fired)
	}
}

func TestStopDuringFastForward(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(499, func() { e.Stop() }) // fires at cycle 500
	n, err := e.Run(10_000, nil)
	if err != nil || n != 500 {
		t.Fatalf("ran %d cycles, err=%v; want 500, nil", n, err)
	}
}

func TestFastForwardRespectsCycleBudget(t *testing.T) {
	// A fully idle engine (no events, empty tick set) must exhaust the
	// budget at exactly the same cycle as per-cycle stepping would.
	e := NewEngine(1)
	newCounting(e, true)
	n, err := e.Run(100, nil)
	if err == nil {
		t.Fatal("Run should report budget exhaustion")
	}
	if n != 100 || e.Now() != 100 {
		t.Fatalf("budget exhausted after %d cycles at %d, want 100", n, e.Now())
	}
	// An event beyond the budget boundary must not be reached.
	fired := false
	e.Schedule(500, func() { fired = true })
	n, err = e.Run(100, nil)
	if err == nil || n != 100 || fired {
		t.Fatalf("ran %d cycles (err=%v, fired=%v); want budget error at 100 with event unfired", n, err, fired)
	}
}

func TestAlwaysTickDisablesSleepAndFastForward(t *testing.T) {
	e := NewEngine(1)
	e.SetAlwaysTick(true)
	c := newCounting(e, true) // tries to sleep every tick
	fired := false
	e.Schedule(49, func() { fired = true }) // fires at cycle 50
	n, err := e.Run(1000, func() bool { return fired })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 50 {
		t.Fatalf("ran %d cycles, want 50", n)
	}
	if len(c.ticks) != 50 {
		t.Fatalf("always-tick component ran %d times, want every one of 50 cycles", len(c.ticks))
	}
}

func TestWakeFromLowerIndexTicksSameCycle(t *testing.T) {
	// Component A (registered first) wakes sleeping component B mid-pass:
	// B must tick in the same cycle, matching always-tick behaviour where
	// B's tick runs after A's every cycle.
	e := NewEngine(1)
	b := &countingTicker{e: e, sleepEach: true}
	var aTicks []Cycle
	e.Register(TickFunc(func(now Cycle) {
		aTicks = append(aTicks, now)
		if now == 3 {
			e.Wake(b.h)
		}
	}))
	b.h = e.Register(b)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if len(b.ticks) != 2 || b.ticks[0] != 1 || b.ticks[1] != 3 {
		t.Fatalf("b ticks = %v, want [1 3] (same-cycle wake from lower index)", b.ticks)
	}
}

// hookTicker records the cycles it was ticked, runs an optional hook, and
// then puts itself to sleep.
type hookTicker struct {
	e     *Engine
	h     Handle
	ticks []Cycle
	hook  func(now Cycle)
}

func (k *hookTicker) Tick(now Cycle) {
	k.ticks = append(k.ticks, now)
	if k.hook != nil {
		k.hook(now)
	}
	k.e.Sleep(k.h)
}

// sleepers registers n hookTickers and steps one cycle, after which every
// one of them has ticked once (at cycle 1) and gone to sleep.
func sleepers(e *Engine, n int) []*hookTicker {
	ks := make([]*hookTicker, n)
	for i := range ks {
		ks[i] = &hookTicker{e: e}
		ks[i].h = e.Register(ks[i])
	}
	e.Step()
	return ks
}

func TestWakeAcrossWordBoundaryForwardTicksSameCycle(t *testing.T) {
	// Handle 63 is the last bit of word 0, handle 64 the first of word 1.
	e := NewEngine(1)
	ks := sleepers(e, 65)
	ks[63].hook = func(now Cycle) { e.Wake(ks[64].h) }
	e.Schedule(1, func() { e.Wake(ks[63].h) }) // fires at cycle 3
	for e.Now() < 5 {
		e.Step()
	}
	if want := []Cycle{1, 3}; !reflect.DeepEqual(ks[64].ticks, want) {
		t.Fatalf("handle 64 ticks = %v, want %v (woken by 63 in the same pass)", ks[64].ticks, want)
	}
}

func TestWakeAcrossWordBoundaryBackwardTicksNextCycle(t *testing.T) {
	e := NewEngine(1)
	ks := sleepers(e, 65)
	ks[64].hook = func(now Cycle) { e.Wake(ks[63].h) }
	e.Schedule(1, func() { e.Wake(ks[64].h) }) // fires at cycle 3
	for e.Now() < 5 {
		e.Step()
	}
	if want := []Cycle{1, 4}; !reflect.DeepEqual(ks[63].ticks, want) {
		t.Fatalf("handle 63 ticks = %v, want %v (woken by 64, so from the next cycle)", ks[63].ticks, want)
	}
}

func TestWakeAcrossSummaryWordForwardTicksSameCycle(t *testing.T) {
	// Handle 4095 is the last bit of the last word under summary word 0,
	// handle 4096 the first bit of the first word under summary word 1.
	e := NewEngine(1)
	ks := sleepers(e, 4097)
	ks[4095].hook = func(now Cycle) { e.Wake(ks[4096].h) }
	e.Schedule(1, func() { e.Wake(ks[4095].h) }) // fires at cycle 3
	for e.Now() < 5 {
		e.Step()
	}
	if want := []Cycle{1, 3}; !reflect.DeepEqual(ks[4096].ticks, want) {
		t.Fatalf("handle 4096 ticks = %v, want %v (woken by 4095 in the same pass)", ks[4096].ticks, want)
	}
}

func TestWakeAcrossSummaryWordBackwardTicksNextCycle(t *testing.T) {
	e := NewEngine(1)
	ks := sleepers(e, 4097)
	ks[4096].hook = func(now Cycle) { e.Wake(ks[4095].h) }
	e.Schedule(1, func() { e.Wake(ks[4096].h) }) // fires at cycle 3
	for e.Now() < 5 {
		e.Step()
	}
	if want := []Cycle{1, 4}; !reflect.DeepEqual(ks[4095].ticks, want) {
		t.Fatalf("handle 4095 ticks = %v, want %v (woken by 4096, so from the next cycle)", ks[4095].ticks, want)
	}
}

func TestWakeWithinWordBackwardTicksNextCycle(t *testing.T) {
	// A wake of an already-passed bit in the word being walked must not be
	// picked up when the pass re-reads that word.
	e := NewEngine(1)
	ks := sleepers(e, 64)
	ks[40].hook = func(now Cycle) { e.Wake(ks[10].h) }
	e.Schedule(1, func() { e.Wake(ks[40].h) }) // fires at cycle 3
	for e.Now() < 5 {
		e.Step()
	}
	if want := []Cycle{1, 4}; !reflect.DeepEqual(ks[10].ticks, want) {
		t.Fatalf("handle 10 ticks = %v, want %v", ks[10].ticks, want)
	}
}

func TestLastBitOfWordSleepsAndRewakesFromEvent(t *testing.T) {
	e := NewEngine(1)
	ks := sleepers(e, 128)
	k := ks[63]
	if e.Awake(k.h) || e.ActiveTickers() != 0 {
		t.Fatalf("after one tick: Awake(63)=%v, ActiveTickers=%d; want false, 0", e.Awake(k.h), e.ActiveTickers())
	}
	e.Schedule(8, func() { e.Wake(k.h) }) // fires at cycle 10
	for e.Now() < 12 {
		e.Step()
	}
	if want := []Cycle{1, 10}; !reflect.DeepEqual(k.ticks, want) {
		t.Fatalf("handle 63 ticks = %v, want %v", k.ticks, want)
	}
	for i, o := range ks {
		if i != 63 && len(o.ticks) != 1 {
			t.Fatalf("handle %d ticked %v, want only [1]", i, o.ticks)
		}
	}
}

// popcount returns the number of set bits in the engine's tick set.
func popcount(e *Engine) int {
	n := 0
	for _, w := range e.awake {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestRegisterExtendsTickSetPastWordBoundary(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 129} {
		e := NewEngine(1)
		var order []int
		hs := make([]Handle, n)
		for i := range hs {
			hs[i] = e.Register(TickFunc(func(Cycle) { order = append(order, i) }))
		}
		if got, want := len(e.awake), (n+63)/64; got != want {
			t.Fatalf("n=%d: %d tick-set words, want %d", n, got, want)
		}
		if e.ActiveTickers() != n || popcount(e) != n {
			t.Fatalf("n=%d: ActiveTickers=%d, %d bits set; want %d", n, e.ActiveTickers(), popcount(e), n)
		}
		// Sleep the even handles so the step takes the sparse pass.
		var want []int
		for i, h := range hs {
			if !e.Awake(h) {
				t.Fatalf("n=%d: handle %d not awake after Register", n, i)
			}
			if i%2 == 0 {
				e.Sleep(h)
			} else {
				want = append(want, i)
			}
		}
		e.Step()
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("n=%d: ticked %v, want %v", n, order, want)
		}
	}
}

func TestSetAlwaysTickMarksEveryHandleAwake(t *testing.T) {
	e := NewEngine(1)
	ks := sleepers(e, 129)
	e.SetAlwaysTick(true)
	if e.ActiveTickers() != 129 || popcount(e) != 129 {
		t.Fatalf("ActiveTickers=%d, %d bits set; want 129 (no bits past the last handle)", e.ActiveTickers(), popcount(e))
	}
	for i, k := range ks {
		if !e.Awake(k.h) {
			t.Fatalf("handle %d not awake under always-tick", i)
		}
	}
	e.Step()
	for i, k := range ks {
		if want := []Cycle{1, 2}; !reflect.DeepEqual(k.ticks, want) {
			t.Fatalf("handle %d ticks = %v, want %v", i, k.ticks, want)
		}
	}
}

// tickRecord is one tick in a scheduler's log.
type tickRecord struct {
	at  Cycle
	idx int
}

// refScheduler is the reference tick pass: one wakefulness flag per
// index, checked in registration order on every cycle.
type refScheduler struct {
	now   Cycle
	ticks []func(Cycle)
	awake []bool
}

func (r *refScheduler) step() {
	r.now++
	for i, tick := range r.ticks {
		if r.awake[i] {
			tick(r.now)
		}
	}
}

// randomTickers builds n tick functions that log (cycle, index), wake up
// to three random handles, and sleep themselves a third of the time. Every
// decision is drawn from rng in tick order, so two schedulers with
// identical tick sequences make identical decisions.
func randomTickers(n int, rng *rand.Rand, wake, sleep func(int), log *[]tickRecord) []func(Cycle) {
	fns := make([]func(Cycle), n)
	for i := range fns {
		fns[i] = func(now Cycle) {
			*log = append(*log, tickRecord{now, i})
			for k := rng.Intn(4); k > 0; k-- {
				wake(rng.Intn(n))
			}
			if rng.Intn(3) == 0 {
				sleep(i)
			}
		}
	}
	return fns
}

// TestTickPassMatchesReferenceScheduler drives the engine and the
// reference scheduler with the same seeded random wake/sleep traffic
// (plus random wakes before each pass, as event callbacks would issue)
// and requires identical tick logs and tick sets. The 4,200-ticker case
// spans two summary words.
func TestTickPassMatchesReferenceScheduler(t *testing.T) {
	for _, tc := range []struct {
		n, cycles int
		seed      int64
	}{{200, 400, 1}, {200, 400, 2}, {200, 400, 3}, {4200, 60, 4}} {
		n, cycles, seed := tc.n, tc.cycles, tc.seed
		var engLog, refLog []tickRecord

		e := NewEngine(seed)
		engRng := rand.New(rand.NewSource(seed))
		for _, fn := range randomTickers(n, engRng, func(h int) { e.Wake(Handle(h)) }, func(h int) { e.Sleep(Handle(h)) }, &engLog) {
			e.Register(TickFunc(fn))
		}

		r := &refScheduler{awake: make([]bool, n)}
		refRng := rand.New(rand.NewSource(seed))
		r.ticks = randomTickers(n, refRng, func(h int) { r.awake[h] = true }, func(h int) { r.awake[h] = false }, &refLog)
		for i := range r.awake {
			r.awake[i] = true
		}

		for c := 0; c < cycles; c++ {
			for k := engRng.Intn(3); k > 0; k-- {
				e.Wake(Handle(engRng.Intn(n)))
			}
			for k := refRng.Intn(3); k > 0; k-- {
				r.awake[refRng.Intn(n)] = true
			}
			e.Step()
			r.step()
		}
		if len(engLog) < cycles {
			t.Fatalf("seed %d: only %d ticks in %d cycles; the traffic is too sparse to test anything", seed, len(engLog), cycles)
		}
		if !reflect.DeepEqual(engLog, refLog) {
			i := 0
			for i < len(engLog) && i < len(refLog) && engLog[i] == refLog[i] {
				i++
			}
			t.Fatalf("seed %d: tick logs diverge at entry %d (engine logged %d ticks, reference %d)", seed, i, len(engLog), len(refLog))
		}
		awake := 0
		for h := 0; h < n; h++ {
			if e.Awake(Handle(h)) != r.awake[h] {
				t.Fatalf("seed %d: handle %d awake=%v, reference %v", seed, h, e.Awake(Handle(h)), r.awake[h])
			}
			if r.awake[h] {
				awake++
			}
		}
		if e.ActiveTickers() != awake {
			t.Fatalf("seed %d: ActiveTickers=%d, reference %d", seed, e.ActiveTickers(), awake)
		}
	}
}

// TestEventHeapOrdering property-checks that events always fire in
// nondecreasing (cycle, seq) order regardless of insertion order.
func TestEventHeapOrdering(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(1)
		var fired []Cycle
		for _, d := range delays {
			d := Cycle(d % 64)
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		for i := 0; i < 80; i++ {
			e.Step()
		}
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.PendingEvents() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAbortCheckStopsRunWithAbortError(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickFunc(func(Cycle) {}))
	cause := errAbortTest
	calls := 0
	e.SetAbortCheck(100, func() error {
		calls++
		if e.Now() >= 250 {
			return cause
		}
		return nil
	})
	_, err := e.Run(10_000, nil)
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v, want *AbortError", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("AbortError does not unwrap to its cause: %v", err)
	}
	// Checks run every 100 cycles: the trip lands on the first check at or
	// after cycle 250, i.e. cycle 300.
	if abort.Now != 300 || e.Now() != 300 {
		t.Fatalf("aborted at cycle %d (engine at %d), want 300", abort.Now, e.Now())
	}
	if calls != 3 {
		t.Fatalf("abort check ran %d times over 300 cycles at every=100, want 3", calls)
	}
}

func TestAbortCheckCoarseCadence(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickFunc(func(Cycle) {}))
	calls := 0
	e.SetAbortCheck(1000, func() error { calls++; return nil })
	if _, err := e.Run(5000, func() bool { return e.Now() == 5000 }); err != nil {
		t.Fatal(err)
	}
	// Checks are due at 1000..5000, but Run's condition exits the loop at
	// cycle 5000 before that cycle's check: four invocations total.
	if calls != 4 {
		t.Fatalf("abort check ran %d times over 5000 cycles at every=1000, want 4", calls)
	}
}

func TestAbortCheckFiresAcrossFastForward(t *testing.T) {
	// A fully quiescent engine fast-forwards over the check boundary in one
	// jump; the abort check must still run when the clock lands past it.
	e := NewEngine(1)
	h := e.Register(TickFunc(func(Cycle) {}))
	e.Sleep(h)
	e.Schedule(9_999, func() {})
	aborted := false
	e.SetAbortCheck(500, func() error {
		aborted = true
		return errAbortTest
	})
	_, err := e.Run(100_000, nil)
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v, want *AbortError", err)
	}
	if !aborted {
		t.Fatal("abort check never ran under fast-forward")
	}
	// The idle jump goes straight to the scheduled event's cycle; the check
	// fires there, not thousands of cycles later.
	if e.Now() > 10_000 {
		t.Fatalf("abort landed at cycle %d, want at most the event cycle 10000", e.Now())
	}
}

func TestAbortCheckRemovable(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickFunc(func(Cycle) {}))
	e.SetAbortCheck(10, func() error { return errAbortTest })
	e.SetAbortCheck(10, nil)
	if _, err := e.Run(100, func() bool { return e.Now() == 100 }); err != nil {
		t.Fatalf("removed abort check still fired: %v", err)
	}
}
