package lock

import (
	"fmt"
	"math/rand"
	"testing"

	"inpg/internal/cache"
	"inpg/internal/coherence"
	"inpg/internal/cpu"
	"inpg/internal/memory"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

// rig is a small full system for lock testing: fabric + threads + a
// mutual-exclusion checking wrapper around the lock under test.
type rig struct {
	t       *testing.T
	eng     *sim.Engine
	fab     *coherence.Fabric
	alloc   *AddrAlloc
	threads []*cpu.Thread
	kind    Kind
	me      *meChecker
}

// meChecker wraps a lock and asserts mutual exclusion at the
// acquire/release level, recording the handoff order.
type meChecker struct {
	inner  cpu.Lock
	t      *testing.T
	holder int
	order  []int
	grants int
}

func (m *meChecker) Acquire(t *cpu.Thread, done func()) {
	m.inner.Acquire(t, func() {
		if m.holder != -1 {
			m.t.Errorf("mutual exclusion violated: %d acquired while %d holds", t.ID, m.holder)
		}
		m.holder = t.ID
		m.order = append(m.order, t.ID)
		m.grants++
		done()
	})
}

func (m *meChecker) Release(t *cpu.Thread, done func()) {
	if m.holder != t.ID {
		m.t.Errorf("thread %d released a lock held by %d", t.ID, m.holder)
	}
	m.holder = -1
	m.inner.Release(t, done)
}

// newRig builds a 4×4 system with `threads` competing threads running
// csEach critical sections under the given primitive.
func newRig(t *testing.T, kind Kind, threads, csEach int, ocor bool) *rig {
	t.Helper()
	eng := sim.NewEngine(23)
	fcfg := coherence.FabricConfig{
		Net: noc.Config{Mesh: noc.Mesh{Width: 4, Height: 4}, VCsPerPort: 6, VCDepth: 4, PriorityArb: ocor},
		L1:  coherence.L1Config{Cache: cache.Config{SizeBytes: 8192, Ways: 4, BlockBytes: 128}, MSHRs: 8, HitLatency: 2},
		Dir: coherence.DirConfig{L2Latency: 6},
		Mem: memory.Config{Controllers: 4, Latency: 30, MaxOutstanding: 16},
	}
	fab, err := coherence.NewFabric(eng, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	alloc := NewAddrAlloc(fab.Homes, fab.Mem)
	cfg := DefaultConfig(threads)
	cfg.CtxSwitch = 100
	cfg.Wakeup = 50
	cfg.QSLRetries = 16 // sleep early so tests exercise the sleep path
	inner, err := New(kind, alloc, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	me := &meChecker{inner: inner, t: t, holder: -1}
	r := &rig{t: t, eng: eng, fab: fab, alloc: alloc, kind: kind, me: me}
	prog := cpu.Program{
		CSCount:        csEach,
		CSCycles:       func(rng *rand.Rand) sim.Cycle { return sim.Cycle(20 + rng.Intn(20)) },
		ParallelCycles: func(rng *rand.Rand) sim.Cycle { return sim.Cycle(30 + rng.Intn(50)) },
	}
	for i := 0; i < threads; i++ {
		th := cpu.New(eng, i, fab.L1s[i], me, prog, int64(1000+i))
		th.OCOR = ocor
		th.QSLRetries = cfg.QSLRetries
		r.threads = append(r.threads, th)
	}
	return r
}

// run starts all threads and drives to completion.
func (r *rig) run(budget sim.Cycle) {
	r.t.Helper()
	for _, th := range r.threads {
		th.Start()
	}
	_, err := r.eng.Run(budget, func() bool {
		for _, th := range r.threads {
			if !th.Done() {
				return false
			}
		}
		return true
	})
	if err != nil {
		for _, th := range r.threads {
			if !th.Done() {
				r.t.Logf("thread %d stuck in %v (cs %d/%d)", th.ID, th.Phase(), th.CSCompleted, 0)
			}
		}
		r.t.Fatalf("lock %s did not complete: %v", r.kind, err)
	}
}

func testPrimitive(t *testing.T, kind Kind) {
	threads, csEach := 8, 4
	r := newRig(t, kind, threads, csEach, false)
	r.run(3_000_000)
	if r.me.grants != threads*csEach {
		t.Fatalf("grants = %d, want %d", r.me.grants, threads*csEach)
	}
	for _, th := range r.threads {
		if th.CSCompleted != csEach {
			t.Fatalf("thread %d completed %d CS, want %d", th.ID, th.CSCompleted, csEach)
		}
		if th.Breakdown.COHTotal() == 0 {
			t.Fatalf("thread %d recorded no competition overhead", th.ID)
		}
		if th.Breakdown.CSE == 0 || th.Breakdown.Parallel == 0 {
			t.Fatalf("thread %d breakdown incomplete: %+v", th.ID, th.Breakdown)
		}
	}
}

func TestTASMutualExclusionAndProgress(t *testing.T)  { testPrimitive(t, TAS) }
func TestTTLMutualExclusionAndProgress(t *testing.T)  { testPrimitive(t, TTL) }
func TestABQLMutualExclusionAndProgress(t *testing.T) { testPrimitive(t, ABQL) }
func TestMCSMutualExclusionAndProgress(t *testing.T)  { testPrimitive(t, MCS) }
func TestQSLMutualExclusionAndProgress(t *testing.T)  { testPrimitive(t, QSL) }

func TestQSLWithOCORPriorities(t *testing.T) {
	r := newRig(t, QSL, 8, 3, true)
	r.run(3_000_000)
	if r.me.grants != 24 {
		t.Fatalf("grants = %d, want 24", r.me.grants)
	}
}

// TestTicketFIFO: under TTL, grant order must follow ticket order, which
// is the order of completed fetch-adds. With serialized home service this
// means no thread can be granted twice before a thread that drew an
// earlier ticket — i.e. between two grants to thread X every other waiting
// thread is granted at most once. The direct check: the i-th grant goes to
// the holder of ticket i, so grants never repeat a thread while another
// thread that requested earlier still waits. We verify the per-round
// structure: in every window of `threads` consecutive grants during the
// steady state no thread appears twice... which holds exactly when grant
// order == ticket order. We assert the weaker but telling property that
// between consecutive grants to the same thread, at least one full
// parallel phase elapsed (no double service).
func TestTicketFIFO(t *testing.T) {
	threads, csEach := 6, 3
	r := newRig(t, TTL, threads, csEach, false)
	r.run(3_000_000)
	last := make(map[int]int)
	for pos, id := range r.me.order {
		if prev, ok := last[id]; ok {
			if pos-prev < 2 {
				t.Fatalf("thread %d granted twice in a row at %d under FIFO ticket lock", id, pos)
			}
		}
		last[id] = pos
	}
}

func TestQSLSleepPathTaken(t *testing.T) {
	r := newRig(t, QSL, 8, 4, false)
	r.run(3_000_000)
	slept := 0
	for _, th := range r.threads {
		slept += th.SleepCount
	}
	if slept == 0 {
		t.Fatal("with a 16-retry budget and 8 threads, some thread must sleep")
	}
	for _, th := range r.threads {
		if th.SleepCount > 0 && th.Breakdown.Sleep == 0 {
			t.Fatalf("thread %d slept %d times but recorded no sleep cycles", th.ID, th.SleepCount)
		}
	}
}

func TestLockPrioMapping(t *testing.T) {
	eng := sim.NewEngine(1)
	th := cpu.New(eng, 0, nil, nil, cpu.Program{}, 1)
	th.OCOR = true
	th.QSLRetries = 128
	if got := th.LockPrio(); got != 1 {
		t.Fatalf("fresh spinner priority = %d, want 1", got)
	}
	for i := 0; i < 127; i++ {
		th.CountRetry()
	}
	if got := th.LockPrio(); got != 8 {
		t.Fatalf("nearly-exhausted spinner priority = %d, want 8", got)
	}
	th.OCOR = false
	if th.LockPrio() != 0 {
		t.Fatal("priority must be 0 without OCOR")
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind must reject unknown names")
	}
}

func TestAddrAllocDistinctBlocks(t *testing.T) {
	h := coherence.HomeMap{Nodes: 16, BlockBytes: 128}
	a := NewAddrAlloc(h, nopPreloader{})
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		addr := a.Block()
		if seen[addr] {
			t.Fatalf("duplicate block %#x", addr)
		}
		seen[addr] = true
	}
	for n := noc.NodeID(0); n < 16; n++ {
		addr := a.BlockAt(n)
		if h.Home(addr) != n {
			t.Fatalf("BlockAt(%d) homed at %d", n, h.Home(addr))
		}
		if seen[addr] {
			t.Fatalf("BlockAt reused block %#x", addr)
		}
		seen[addr] = true
	}
}

type nopPreloader struct{}

func (nopPreloader) Preload(addr, val uint64) {}

// TestAllPrimitivesUnderContention runs every primitive with all 16 cores
// hammering the same lock (the paper's Section 3.2 scenario scaled down).
func TestAllPrimitivesUnderContention(t *testing.T) {
	for _, k := range Kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			r := newRig(t, k, 16, 2, false)
			r.run(6_000_000)
			if r.me.grants != 32 {
				t.Fatalf("grants = %d, want 32", r.me.grants)
			}
			if err := r.fab.CheckInvariants(lockAddrs(r)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// lockAddrs lists the first blocks of each home for invariant checking.
func lockAddrs(r *rig) []uint64 {
	var addrs []uint64
	for n := 0; n < r.fab.Homes.Nodes; n++ {
		addrs = append(addrs, r.fab.Homes.AddrForHome(noc.NodeID(n), 0))
	}
	return addrs
}

func ExampleKind_String() {
	fmt.Println(TAS, TTL, ABQL, MCS, QSL)
	// Output: TAS TTL ABQL MCS QSL
}

func TestCLHMutualExclusionAndProgress(t *testing.T) { testPrimitive(t, CLH) }

func TestCLHQueueRotation(t *testing.T) {
	// Repeated handoffs between two threads exercise the two-node rotation
	// (a freed node must not be observed busy from a previous round).
	r := newRig(t, CLH, 2, 10, false)
	r.run(3_000_000)
	if r.me.grants != 20 {
		t.Fatalf("grants = %d, want 20", r.me.grants)
	}
}

func TestParseKindExtension(t *testing.T) {
	k, err := ParseKind("CLH")
	if err != nil || k != CLH {
		t.Fatalf("ParseKind(CLH) = %v, %v", k, err)
	}
	if len(Kinds) != 5 || len(KindsWithExtensions) != 6 {
		t.Fatal("kind lists wrong")
	}
}
