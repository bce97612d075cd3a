package coherence

import (
	"errors"
	"math/rand"
	"testing"

	"inpg/internal/cache"
	"inpg/internal/fault"
	"inpg/internal/memory"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

// The protocol fuzzer drives a random mix of loads, stores, atomics and
// release write-throughs from every core against a small set of hot
// addresses, then checks the system-level guarantees that survive any
// interleaving:
//
//  1. progress — every operation completes (no protocol deadlock);
//  2. coherence — at quiesce, at most one owner per line and all shared
//     copies equal (Fabric.CheckInvariants);
//  3. agreement — two fresh readers observe the same final value;
//  4. counting — on addresses restricted to fetch-add, no increment is
//     ever lost.
//
// This is the harness that caught the fill-race, ghost-record and
// floating-ack bugs during development.

type fuzzOpKind int

const (
	fuzzLoad fuzzOpKind = iota
	fuzzStore
	fuzzSwap
	fuzzFAA
	fuzzCAS
	fuzzRelease
	fuzzKinds
)

func fuzzFabric(t *testing.T, seed int64) *Fabric {
	t.Helper()
	return fuzzFaultedFabric(t, seed, fault.Config{})
}

func fuzzFaultedFabric(t *testing.T, seed int64, fc fault.Config) *Fabric {
	t.Helper()
	eng := sim.NewEngine(seed)
	cfg := FabricConfig{
		Net: noc.Config{Mesh: noc.Mesh{Width: 4, Height: 4}, VCsPerPort: 6, VCDepth: 4, Fault: fc},
		L1:  L1Config{Cache: cache.Config{SizeBytes: 4096, Ways: 4, BlockBytes: 128}, MSHRs: 8, HitLatency: 2},
		Dir: DirConfig{L2Latency: 6},
		Mem: memory.Config{Controllers: 4, Latency: 20, MaxOutstanding: 16},
	}
	f, err := NewFabric(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestProtocolFuzzMixedOps(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("", func(t *testing.T) { fuzzOnce(t, seed) })
	}
}

func fuzzOnce(t *testing.T, seed int64) {
	fuzzRun(t, seed, 0)
}

// TestProtocolFuzzWithFaults repeats the mixed-op fuzz under transient link
// and port faults: the retransmission layer must keep every protocol
// guarantee intact. Every run completes (and passes the full invariant
// suite) or returns a structured stall diagnosis naming a dead link — never
// a panic, never a silent crawl to the cycle budget.
func TestProtocolFuzzWithFaults(t *testing.T) {
	type cse struct {
		seed int64
		rate float64
	}
	cases := []cse{{1, 0.02}, {2, 0.05}, {3, 0.10}, {5, 0.02}, {8, 0.08}}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, c := range cases {
		c := c
		t.Run("", func(t *testing.T) { fuzzRun(t, c.seed, c.rate) })
	}
}

// FuzzCoherence is the native fuzz target: the engine seed and fault rate
// come from the fuzzer, and any input must end in a clean completion (with
// invariants) or a structured, diagnosed error. Run with
// go test -fuzz=FuzzCoherence ./internal/coherence.
func FuzzCoherence(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(3))
	f.Add(int64(42), uint8(12))
	// Regression: this input once wedged the home directory — a floating
	// AcksComplete from the lock-probe fast path, delayed by retransmission
	// backoff, completed a later transaction by the same requester and
	// stranded its ack wait. Fixed by Seq matching (Message.Seq).
	f.Add(int64(186), uint8(0x1d))
	f.Fuzz(func(t *testing.T, seed int64, ratePct uint8) {
		fuzzRun(t, seed, float64(ratePct%16)/100)
	})
}

// fuzzRun drives the mixed-op fuzz at the given combined fault rate. At
// rate 0 it must complete and satisfy every invariant; at nonzero rates a
// watchdog-diagnosed stall with a dead link is also an accepted outcome
// (bounded retransmission is allowed to declare a link failed), but any
// error without that diagnosis — or any panic — is a bug.
func fuzzRun(t *testing.T, seed int64, faultRate float64) {
	fc := fault.AtRate(faultRate, seed^0x5bf03635)
	f := fuzzFaultedFabric(t, seed, fc)
	if faultRate > 0 {
		f.Eng.SetWatchdog(1_000_000)
	}
	rng := rand.New(rand.NewSource(seed * 7919))

	// Hot addresses: a few mixed-use lines plus one FAA-only counter.
	var addrs []uint64
	for i := 0; i < 4; i++ {
		addrs = append(addrs, f.Homes.AddrForHome(noc.NodeID(rng.Intn(16)), i))
	}
	counter := f.Homes.AddrForHome(noc.NodeID(rng.Intn(16)), 9)

	const opsPerCore = 20
	cores := len(f.L1s)
	finished := 0
	var faaCount uint64

	for id := 0; id < cores; id++ {
		l1 := f.L1s[id]
		r := rand.New(rand.NewSource(seed + int64(id)*104729))
		var step func(k int)
		step = func(k int) {
			if k == opsPerCore {
				finished++
				return
			}
			next := func() { step(k + 1) }
			if r.Intn(4) == 0 {
				// Hammer the FAA-only counter.
				faaCount++
				l1.Atomic(counter, FetchAdd, 1, 0, 0, func(uint64) { next() })
				return
			}
			addr := addrs[r.Intn(len(addrs))]
			switch fuzzOpKind(r.Intn(int(fuzzKinds))) {
			case fuzzLoad:
				l1.Load(addr, r.Intn(2) == 0, 0, func(uint64) { next() })
			case fuzzStore:
				l1.Store(addr, uint64(r.Intn(8)), false, 0, next)
			case fuzzSwap:
				l1.Atomic(addr, Swap, uint64(r.Intn(3)), 0, 0, func(uint64) { next() })
			case fuzzFAA:
				l1.Atomic(addr, FetchAdd, uint64(r.Intn(3)), 0, 0, func(uint64) { next() })
			case fuzzCAS:
				l1.Atomic(addr, CompareSwap, uint64(r.Intn(3)), uint64(r.Intn(8)), 0, func(uint64) { next() })
			case fuzzRelease:
				l1.StoreRelease(addr, uint64(r.Intn(8)), true, 0, next)
			}
		}
		step(0)
	}

	if _, err := f.Eng.Run(20_000_000, func() bool { return finished == cores }); err != nil {
		var stall *sim.StallError
		if faultRate > 0 && errors.As(err, &stall) {
			// A stall under fault injection is legitimate only when bounded
			// retransmission actually declared a link dead; the watchdog must
			// have reported it long before the cycle budget, and the network
			// diagnosis must name the failed link.
			dead := f.Net.Diagnostics(f.Eng.Now()).DeadLinks()
			if len(dead) == 0 {
				t.Fatalf("seed %d rate %.2f: stalled with no dead link: %v (finished %d/%d)",
					seed, faultRate, err, finished, cores)
			}
			return
		}
		t.Fatalf("seed %d rate %.2f: protocol stalled: %v (finished %d/%d)",
			seed, faultRate, err, finished, cores)
	}

	// Quiesce the network, then check invariants and reader agreement.
	if err := f.Quiesce(100_000); err != nil {
		t.Fatalf("seed %d: network did not drain: %v", seed, err)
	}
	if err := f.CheckInvariants(append(addrs, counter)); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for _, addr := range addrs {
		var v1, v2 uint64
		got := 0
		f.L1s[0].Load(addr, false, 0, func(v uint64) { v1 = v; got++ })
		f.L1s[15].Load(addr, false, 0, func(v uint64) { v2 = v; got++ })
		if _, err := f.Eng.Run(100_000, func() bool { return got == 2 }); err != nil {
			t.Fatalf("seed %d: final reads stalled: %v", seed, err)
		}
		if v1 != v2 {
			t.Fatalf("seed %d: readers disagree on %#x: %d vs %d", seed, addr, v1, v2)
		}
	}
	// The FAA-only counter must have every increment.
	var final uint64
	done := false
	f.L1s[3].Load(counter, false, 0, func(v uint64) { final = v; done = true })
	if _, err := f.Eng.Run(100_000, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	if final != faaCount {
		t.Fatalf("seed %d: counter = %d, want %d: increments lost", seed, final, faaCount)
	}
}

// TestProtocolFuzzWithBigRouters repeats the fuzz with interceptors
// present so iNPG's stop/convert/relay path is exercised under random
// traffic, not just lock workloads.
func TestProtocolFuzzWithBigRouters(t *testing.T) {
	// The big routers live in their own package; rather than import it
	// (cycle), emulate a pass-through interceptor here to at least cover
	// the interceptor code path in the router under fuzz traffic. The
	// full-stack iNPG fuzz lives in the root package's system tests.
	f := fuzzFabric(t, 99)
	for n := 0; n < 16; n += 2 {
		f.Net.Router(noc.NodeID(n)).SetInterceptor(passThrough{})
	}
	rng := rand.New(rand.NewSource(4242))
	addr := f.Homes.AddrForHome(5, 0)
	finished := 0
	for id := 0; id < len(f.L1s); id++ {
		l1 := f.L1s[id]
		r := rand.New(rand.NewSource(int64(id) + 1))
		var step func(k int)
		step = func(k int) {
			if k == 10 {
				finished++
				return
			}
			if r.Intn(2) == 0 {
				l1.Atomic(addr, Swap, 1, 0, 0, func(uint64) { step(k + 1) })
			} else {
				l1.StoreRelease(addr, 0, true, 0, func() { step(k + 1) })
			}
		}
		step(0)
	}
	_ = rng
	if _, err := f.Eng.Run(5_000_000, func() bool { return finished == len(f.L1s) }); err != nil {
		t.Fatalf("stalled with interceptors: %v", err)
	}
	if err := f.CheckInvariants([]uint64{addr}); err != nil {
		t.Fatal(err)
	}
}

type passThrough struct{}

func (passThrough) Intercept(now sim.Cycle, r *noc.Router, p *noc.Packet) (bool, *noc.Packet) {
	return false, nil
}
