package lock

import (
	"testing"

	"inpg/internal/coherence"
	"inpg/internal/cpu"
	"inpg/internal/sim"
)

// scriptPort is a MemPort whose operations complete only when the test
// fires their callbacks, so a test can order the races of the QSL sleep
// path exactly.
type scriptPort struct {
	loads, atomics []func(uint64)
	releases       []func()
}

func (p *scriptPort) Load(_ uint64, _ bool, _ int, cb func(uint64)) { p.loads = append(p.loads, cb) }
func (p *scriptPort) Store(_, _ uint64, _ bool, _ int, cb func()) {
	p.releases = append(p.releases, cb)
}
func (p *scriptPort) StoreRelease(_, _ uint64, _ bool, _ int, cb func()) {
	p.releases = append(p.releases, cb)
}
func (p *scriptPort) Atomic(_ uint64, _ coherence.AtomicOp, _, _ uint64, _ int, cb func(uint64)) {
	p.atomics = append(p.atomics, cb)
}

// TestQSLStaleWakeupIgnored replays the race the per-thread waiter must
// survive: a release wakes a sleeping thread whose post-enqueue probe has
// already swapped the lock free, the probe wins, and the thread sleeps
// again before the lost wakeup fires. That wakeup belongs to the settled
// episode and must not resume the new one.
func TestQSLStaleWakeupIgnored(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(2)
	cfg.QSLRetries = 1 // one failed poll, then sleep
	cfg.CtxSwitch = 10
	cfg.Wakeup = 1000
	l := newQSL(NewAddrAlloc(coherence.HomeMap{Nodes: 4, BlockBytes: 128}, nil), 0, cfg)
	pa, pb := &scriptPort{}, &scriptPort{}
	a := cpu.New(eng, 0, pa, l, cpu.Program{}, 1)
	b := cpu.New(eng, 1, pb, l, cpu.Program{}, 2)
	idle := func(cycles sim.Cycle) {
		t.Helper()
		if _, err := eng.Run(cycles, func() bool { return false }); err == nil {
			t.Fatal("run ended early")
		}
	}
	acquired := 0
	done := func() { acquired++ }
	// fireLoad completes b's n-th load with v.
	fireLoad := func(n int, v uint64) {
		t.Helper()
		if len(pb.loads) <= n {
			t.Fatalf("b issued %d loads, want at least %d", len(pb.loads), n+1)
		}
		pb.loads[n](v)
	}
	// sleepB has b poll once (the lock is held), sleep, and probe the
	// lock as its n-th load.
	sleepB := func(n int) {
		t.Helper()
		l.Acquire(b, done)
		fireLoad(n, 1)
		idle(cfg.SpinInterval + cfg.CtxSwitch + 2)
		if b.Phase() != cpu.PhaseSleep || len(l.sleepers) != 1 {
			t.Fatalf("b in %v with %d sleepers, want asleep and queued", b.Phase(), len(l.sleepers))
		}
	}

	sleepB(0)
	fireLoad(1, 0) // the probe sees the lock free and swaps
	l.Release(a, func() {})
	pa.releases[0]() // the release pops b and schedules its wakeup
	pb.atomics[0](0) // the probe's swap wins anyway
	if acquired != 1 || b.Phase() != cpu.PhaseCOH {
		t.Fatalf("probe did not acquire: acquired %d, b in %v", acquired, b.Phase())
	}
	l.Release(b, func() {})
	pb.releases[0]()

	sleepB(2) // asleep again, well before the lost wakeup fires
	fireLoad(3, 1)
	idle(cfg.Wakeup + cfg.CtxSwitch)
	if b.Phase() != cpu.PhaseSleep || len(pb.loads) != 4 {
		t.Fatalf("the lost wakeup resumed b: b in %v after %d loads", b.Phase(), len(pb.loads))
	}

	// A real release still wakes it.
	l.Release(a, func() {})
	pa.releases[1]()
	idle(cfg.Wakeup + cfg.CtxSwitch + 2)
	if b.Phase() != cpu.PhaseCOH || len(pb.loads) != 5 {
		t.Fatalf("release did not wake b: b in %v after %d loads", b.Phase(), len(pb.loads))
	}
}
