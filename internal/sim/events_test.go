package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// eventScheduler is the part of the engine the event-order differential
// drives; refEvents implements it as the reference.
type eventScheduler interface {
	Now() Cycle
	Schedule(delay Cycle, fn func())
	ScheduleAt(at Cycle, fn func())
	Step()
	Run(maxCycles Cycle, cond func() bool) (Cycle, error)
	PendingEvents() int
	NoteProgress()
	Stop()
	SetWatchdog(window Cycle)
}

// refEvents is the reference event scheduler: every pending event in one
// slice in schedule order, and each cycle fires the due ones in that
// order. Its Run steps every cycle; it never fast-forwards.
type refEvents struct {
	now          Cycle
	pending      []refEvent
	stopped      bool
	window       Cycle
	lastProgress Cycle
}

type refEvent struct {
	at Cycle
	fn func()
}

func (r *refEvents) Now() Cycle { return r.now }

func (r *refEvents) Schedule(delay Cycle, fn func()) {
	r.pending = append(r.pending, refEvent{r.now + 1 + delay, fn})
}

func (r *refEvents) ScheduleAt(at Cycle, fn func()) {
	r.pending = append(r.pending, refEvent{max(at, r.now+1), fn})
}

func (r *refEvents) Step() {
	r.now++
	var due []func()
	kept := r.pending[:0]
	for _, ev := range r.pending {
		if ev.at <= r.now {
			due = append(due, ev.fn)
		} else {
			kept = append(kept, ev)
		}
	}
	r.pending = kept
	for _, fn := range due {
		fn()
	}
}

func (r *refEvents) Run(maxCycles Cycle, cond func() bool) (Cycle, error) {
	start := r.now
	r.stopped = false
	for r.now < start+maxCycles {
		r.Step()
		if r.stopped || cond() {
			return r.now - start, nil
		}
		if r.window > 0 && r.now-r.lastProgress >= r.window {
			return r.now - start, &StallError{Now: r.now, LastProgress: r.lastProgress, Window: r.window}
		}
	}
	return r.now - start, &BudgetError{Budget: maxCycles, Now: r.now}
}

func (r *refEvents) PendingEvents() int { return len(r.pending) }
func (r *refEvents) NoteProgress()      { r.lastProgress = r.now }
func (r *refEvents) Stop()              { r.stopped = true }

func (r *refEvents) SetWatchdog(window Cycle) {
	r.window = window
	r.lastProgress = r.now
}

// evOp is one step of a generated event workload.
type evOp struct {
	kind   int   // opSchedule, opScheduleAt, opStep or opRun
	n      int64 // delay, offset from now, step count or cycle budget
	target int   // opRun: stop once this many more events fired (0: no cond)
	window Cycle // opRun: watchdog window (0: disarmed)
}

const (
	opSchedule = iota
	opScheduleAt
	opStep
	opRun
)

// genEventOps draws count operations: schedules with delays from 0 to
// 3×wheelSpan (weighted toward the span's edges), schedules at absolute
// cycles from the past to 3×wheelSpan ahead, runs of one to three steps,
// and Runs with and without a stop condition, a watchdog window and a
// budget that often ends them.
func genEventOps(seed int64, count int) []evOp {
	rng := rand.New(rand.NewSource(seed))
	edges := []int64{0, 1, wheelSpan - 2, wheelSpan - 1, wheelSpan, wheelSpan + 1, 2*wheelSpan - 1, 2 * wheelSpan}
	ops := make([]evOp, count)
	for i := range ops {
		switch p := rng.Intn(100); {
		case p < 40:
			d := rng.Int63n(3*wheelSpan + 1)
			if rng.Intn(3) == 0 {
				d = edges[rng.Intn(len(edges))]
			}
			ops[i] = evOp{kind: opSchedule, n: d}
		case p < 55:
			ops[i] = evOp{kind: opScheduleAt, n: rng.Int63n(3*wheelSpan+40) - 40}
		case p < 80:
			ops[i] = evOp{kind: opStep, n: 1 + rng.Int63n(3)}
		default:
			op := evOp{kind: opRun, n: 1 + rng.Int63n(4*wheelSpan)}
			if rng.Intn(2) == 0 {
				op.target = 1 + rng.Intn(8)
			}
			if rng.Intn(3) == 0 {
				op.window = Cycle(1 + rng.Intn(2*wheelSpan))
			}
			ops[i] = op
		}
	}
	return ops
}

// firing is one fired event in a scheduler's log.
type firing struct {
	at Cycle
	id int
}

// eventDriver replays a generated workload on one scheduler. Event ids
// count schedule calls, and what a firing event does next is a function
// of its id alone, so two schedulers that fire identically log
// identically.
type eventDriver struct {
	s     eventScheduler
	ids   int
	fired []firing
	// pending samples PendingEvents (in id) after each stepped cycle: every
	// cycle of a Step op, and every cycle a Run evaluates its condition at.
	pending []firing
}

func (d *eventDriver) callback(id int) func() {
	return func() {
		s := d.s
		now := s.Now()
		d.fired = append(d.fired, firing{now, id})
		switch id % 16 {
		case 0:
			s.Schedule(wheelSpan-2, d.next()) // due span-1 ahead
		case 1:
			s.Schedule(wheelSpan-1, d.next()) // due span ahead
		case 2:
			s.Schedule(wheelSpan, d.next()) // due span+1 ahead
		case 3:
			s.ScheduleAt(now+wheelSpan-1, d.next())
		case 4:
			s.ScheduleAt(now+wheelSpan, d.next())
		case 5:
			s.ScheduleAt(now+wheelSpan+1, d.next())
		case 6:
			s.Schedule(0, d.next())
		case 7:
			s.ScheduleAt(now, d.next()) // the past: fires next cycle
		case 8, 9:
			s.NoteProgress()
		}
		if id%97 == 96 {
			s.Stop()
		}
	}
}

// next issues the next event id and returns its callback.
func (d *eventDriver) next() func() {
	d.ids++
	return d.callback(d.ids)
}

// apply performs op and returns a comparable summary of its outcome.
func (d *eventDriver) apply(op evOp) string {
	s := d.s
	switch op.kind {
	case opSchedule:
		s.Schedule(Cycle(op.n), d.next())
	case opScheduleAt:
		at := int64(s.Now()) + op.n
		s.ScheduleAt(Cycle(max(at, 0)), d.next())
	case opStep:
		for k := int64(0); k < op.n; k++ {
			s.Step()
			d.pending = append(d.pending, firing{s.Now(), s.PendingEvents()})
		}
	case opRun:
		s.SetWatchdog(op.window)
		goal := len(d.fired) + op.target
		n, err := s.Run(Cycle(op.n), func() bool {
			d.pending = append(d.pending, firing{s.Now(), s.PendingEvents()})
			return op.target > 0 && len(d.fired) >= goal
		})
		s.SetWatchdog(0)
		var stall *StallError
		var budget *BudgetError
		switch {
		case err == nil:
			return fmt.Sprintf("ran %d", n)
		case errors.As(err, &stall):
			return fmt.Sprintf("ran %d, stall %+v", n, *stall)
		case errors.As(err, &budget):
			return fmt.Sprintf("ran %d, budget %+v", n, *budget)
		default:
			return fmt.Sprintf("ran %d, %v", n, err)
		}
	}
	return ""
}

// checkEventOrder replays seed's workload on the engine and the reference
// and fails at the first operation after which their clocks, outcomes,
// firing logs or pending counts differ. It returns the number of events
// fired.
func checkEventOrder(t testing.TB, seed int64, count int) int {
	eng := &eventDriver{s: NewEngine(seed)}
	ref := &eventDriver{s: &refEvents{}}
	for i, op := range genEventOps(seed, count) {
		got, want := eng.apply(op), ref.apply(op)
		if got != want {
			t.Fatalf("seed %d op %d %+v: engine %s, reference %s", seed, i, op, got, want)
		}
		if eng.s.Now() != ref.s.Now() {
			t.Fatalf("seed %d op %d %+v: engine at cycle %d, reference at %d", seed, i, op, eng.s.Now(), ref.s.Now())
		}
		if g, w := eng.s.PendingEvents(), ref.s.PendingEvents(); g != w {
			t.Fatalf("seed %d op %d %+v at cycle %d: PendingEvents %d, reference %d", seed, i, op, eng.s.Now(), g, w)
		}
		if j := firstDiff(eng.fired, ref.fired); j >= 0 {
			t.Fatalf("seed %d op %d %+v: firing logs diverge at entry %d: engine %v, reference %v",
				seed, i, op, j, entry(eng.fired, j), entry(ref.fired, j))
		}
		// The engine evaluates a Run's condition only at the cycles it
		// steps, the reference at every cycle: each engine sample must
		// match the reference's at the same cycle.
		w := 0
		for _, g := range eng.pending {
			for w < len(ref.pending) && ref.pending[w].at < g.at {
				w++
			}
			if w == len(ref.pending) || ref.pending[w] != g {
				t.Fatalf("seed %d op %d %+v: engine had %d events pending after cycle %d, reference %v",
					seed, i, op, g.id, g.at, entry(ref.pending, w))
			}
		}
		eng.pending, ref.pending = eng.pending[:0], ref.pending[:0]
	}
	return len(eng.fired)
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []firing) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i == len(a) || i == len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// entry formats log[i], or "none" past its end.
func entry(log []firing, i int) string {
	if i < len(log) {
		return fmt.Sprintf("%+v", log[i])
	}
	return "none"
}

// TestEventOrderMatchesReference checks that the timing wheel and far heap
// fire every event at its cycle in schedule order, and keep PendingEvents
// (the sim.pending_events gauge) exact, against a one-slice reference
// scheduler, over seeded mixes of schedules inside and beyond the span,
// schedules into the past, steps, and Runs that fast-forward, trip a
// watchdog or exhaust a budget.
func TestEventOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		if n := checkEventOrder(t, seed, 3000); n < 1000 {
			t.Fatalf("seed %d fired only %d events; the workload is too sparse to test anything", seed, n)
		}
	}
}

// TestEventWheelAllocatesNothing checks that once the node slab and the
// far heap have grown to a workload's peak, scheduling and firing events
// with delays from 0 to 2×wheelSpan allocate nothing.
func TestEventWheelAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	fn := func() { fired++ }
	round := func() {
		for d := Cycle(0); d <= 2*wheelSpan; d += 5 {
			e.Schedule(d, fn)
			e.Step()
		}
		for e.PendingEvents() > 0 {
			e.Step()
		}
	}
	round() // warm-up: grows the slab and the far heap to the round's peak
	if a := testing.AllocsPerRun(20, round); a != 0 {
		t.Fatalf("a round of scheduling and stepping allocates %.1f times, want 0", a)
	}
	// Our warm-up round, AllocsPerRun's own and its 20 measured rounds.
	if want := 22 * (2*wheelSpan/5 + 1); fired != want {
		t.Fatalf("fired %d events, want %d", fired, want)
	}
}

// FuzzEventOrderMatchesReference runs the differential over fuzzed seeds
// and operation counts.
func FuzzEventOrderMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(500))
	f.Add(int64(42), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		checkEventOrder(t, seed, int(ops%4096))
	})
}
