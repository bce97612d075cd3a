package cpu

import (
	"math/rand"
	"testing"

	"inpg/internal/coherence"
	"inpg/internal/sim"
)

// fakePort completes every operation after a fixed delay.
type fakePort struct {
	eng   *sim.Engine
	delay sim.Cycle
}

func (f *fakePort) Load(addr uint64, lock bool, p int, cb func(uint64)) {
	f.eng.Schedule(f.delay, func() { cb(0) })
}
func (f *fakePort) Store(addr, val uint64, lock bool, p int, cb func()) {
	f.eng.Schedule(f.delay, cb)
}
func (f *fakePort) StoreRelease(addr, val uint64, lock bool, p int, cb func()) {
	f.eng.Schedule(f.delay, cb)
}
func (f *fakePort) Atomic(addr uint64, op coherence.AtomicOp, a, b uint64, p int, cb func(uint64)) {
	f.eng.Schedule(f.delay, func() { cb(0) })
}

// fakeLock acquires and releases after fixed waits.
type fakeLock struct {
	eng     *sim.Engine
	acqWait sim.Cycle
	holds   int
}

func (l *fakeLock) Acquire(t *Thread, done func()) {
	l.eng.Schedule(l.acqWait, func() { l.holds++; done() })
}
func (l *fakeLock) Release(t *Thread, done func()) {
	l.eng.Schedule(1, done)
}

func constProg(cs int, csCyc, parCyc sim.Cycle) Program {
	return Program{
		CSCount:        cs,
		CSCycles:       func(*rand.Rand) sim.Cycle { return csCyc },
		ParallelCycles: func(*rand.Rand) sim.Cycle { return parCyc },
	}
}

func runThread(t *testing.T, prog Program, acq sim.Cycle) (*Thread, *fakeLock) {
	t.Helper()
	eng := sim.NewEngine(1)
	port := &fakePort{eng: eng, delay: 2}
	lk := &fakeLock{eng: eng, acqWait: acq}
	th := New(eng, 0, port, lk, prog, 7)
	th.Start()
	if _, err := eng.Run(1_000_000, th.Done); err != nil {
		t.Fatal(err)
	}
	return th, lk
}

func TestThreadCompletesProgram(t *testing.T) {
	th, lk := runThread(t, constProg(5, 50, 200), 10)
	if th.CSCompleted != 5 || lk.holds != 5 {
		t.Fatalf("completed %d CS (lock held %d), want 5", th.CSCompleted, lk.holds)
	}
	if !th.Done() || th.Phase() != PhaseDone {
		t.Fatal("thread not done")
	}
}

func TestPhaseAccounting(t *testing.T) {
	th, _ := runThread(t, constProg(4, 60, 300), 25)
	b := th.Breakdown
	// 4 iterations × 300 parallel.
	if b.Parallel != 4*300 {
		t.Fatalf("parallel = %d, want 1200", b.Parallel)
	}
	// COH = acquire waits: 4 × (25+1) (schedule delay semantics put the
	// acquire completion at start+wait+1).
	if b.COH < 4*25 || b.COH > 4*30 {
		t.Fatalf("COH = %d, want ≈104", b.COH)
	}
	// CSE = CS compute + release each iteration.
	if b.CSE < 4*60 || b.CSE > 4*65 {
		t.Fatalf("CSE = %d, want ≈246", b.CSE)
	}
	if b.Total() == 0 || b.Sleep != 0 {
		t.Fatalf("unexpected breakdown %+v", b)
	}
}

func TestSleepAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	port := &fakePort{eng: eng, delay: 1}
	// A lock that parks the thread in the sleep phase for 100 cycles.
	lk := &sleepyLock{eng: eng}
	th := New(eng, 3, port, lk, constProg(1, 10, 10), 1)
	th.Start()
	if _, err := eng.Run(10000, th.Done); err != nil {
		t.Fatal(err)
	}
	if th.SleepCount != 1 {
		t.Fatalf("sleeps = %d, want 1", th.SleepCount)
	}
	if th.Breakdown.Sleep < 95 || th.Breakdown.Sleep > 105 {
		t.Fatalf("sleep cycles = %d, want ≈100", th.Breakdown.Sleep)
	}
	if th.Breakdown.COHTotal() <= th.Breakdown.Sleep {
		t.Fatal("COHTotal must include sleep plus spin time")
	}
}

type sleepyLock struct{ eng *sim.Engine }

func (l *sleepyLock) Acquire(t *Thread, done func()) {
	l.eng.Schedule(10, func() {
		t.BeginSleep()
		l.eng.Schedule(99, func() {
			t.EndSleep()
			done()
		})
	})
}
func (l *sleepyLock) Release(t *Thread, done func()) { l.eng.Schedule(1, done) }

func TestPhaseHookObservesTransitions(t *testing.T) {
	eng := sim.NewEngine(1)
	port := &fakePort{eng: eng, delay: 1}
	lk := &fakeLock{eng: eng, acqWait: 5}
	th := New(eng, 0, port, lk, constProg(2, 20, 50), 1)
	var seq []Phase
	th.PhaseHook = func(_ *Thread, _ sim.Cycle, _, to Phase) { seq = append(seq, to) }
	th.Start()
	if _, err := eng.Run(10000, th.Done); err != nil {
		t.Fatal(err)
	}
	// After the last release the thread briefly re-enters Parallel while
	// checking its quota, then finishes.
	want := []Phase{PhaseParallel, PhaseCOH, PhaseCSE, PhaseParallel, PhaseCOH, PhaseCSE, PhaseParallel, PhaseDone}
	if len(seq) != len(want) {
		t.Fatalf("transitions %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, seq[i], want[i])
		}
	}
}

func TestLockPrioLevels(t *testing.T) {
	eng := sim.NewEngine(1)
	th := New(eng, 0, nil, nil, Program{}, 1)
	th.OCOR = true
	th.QSLRetries = 128
	prios := map[int]int{0: 1, 15: 1, 16: 2, 127: 8, 500: 8}
	for retries, want := range prios {
		th.ResetRetries()
		for i := 0; i < retries; i++ {
			th.CountRetry()
		}
		if got := th.LockPrio(); got != want {
			t.Fatalf("prio after %d retries = %d, want %d", retries, got, want)
		}
	}
	th.EndSleep() // woken: lowest priority
	if th.LockPrio() != 0 {
		t.Fatal("woken thread must have priority 0")
	}
}

func TestOnDoneCallback(t *testing.T) {
	eng := sim.NewEngine(1)
	port := &fakePort{eng: eng, delay: 1}
	lk := &fakeLock{eng: eng, acqWait: 1}
	th := New(eng, 0, port, lk, constProg(1, 5, 5), 1)
	fired := false
	th.SetOnDone(func(x *Thread) { fired = x == th })
	th.Start()
	if _, err := eng.Run(1000, th.Done); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("onDone not fired with the thread")
	}
}

func TestPhaseStrings(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseInit: "init", PhaseParallel: "parallel", PhaseCOH: "coh",
		PhaseSleep: "sleep", PhaseCSE: "cse", PhaseDone: "done",
	} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}
