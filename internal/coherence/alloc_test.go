package coherence

import (
	"errors"
	"testing"

	"inpg/internal/sim"
)

// The protocol hot path allocates nothing once warm: messages come from
// the fabric's free list, MSHR entries from a per-L1 slab, fixed-latency
// events from bound delay lines and sharer sets are bitsets. Each test
// warms the path once, then reads testing.AllocsPerRun.

// table1Fabric builds the 8×8 Table 1 fabric.
func table1Fabric(t *testing.T) *Fabric {
	t.Helper()
	f, err := NewFabric(sim.NewEngine(1), DefaultFabricConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// settle drains f or fails the test.
func settle(t *testing.T, f *Fabric) {
	t.Helper()
	if err := f.Settle(1_000_000); err != nil {
		t.Fatal(err)
	}
}

// requireNoAllocs runs op (after one warm-up run) and fails if it
// allocates.
func requireNoAllocs(t *testing.T, what string, op func()) {
	t.Helper()
	op()
	if n := testing.AllocsPerRun(20, op); n != 0 {
		t.Fatalf("%s: %.1f allocations per run, want 0", what, n)
	}
}

func TestLoadHitAllocatesNothing(t *testing.T) {
	f := table1Fabric(t)
	l1 := f.L1s[3]
	addr := f.Homes.AddrForHome(9, 0)
	hits := 0
	cb := func(uint64) { hits++ }
	requireNoAllocs(t, "L1 load hit", func() {
		l1.Load(addr, false, 0, cb)
		settle(t, f)
	})
	if l1.Stats.Hits == 0 || hits == 0 {
		t.Fatalf("no load hit measured (hits %d, callbacks %d)", l1.Stats.Hits, hits)
	}
}

func TestGetSRoundTripAllocatesNothing(t *testing.T) {
	f := table1Fabric(t)
	l1 := f.L1s[3]
	addr := f.Homes.AddrForHome(9, 0)
	cb := func(uint64) {}
	requireNoAllocs(t, "GetS miss -> Data round trip", func() {
		l1.Cache().Invalidate(addr) // drop the copy so the load misses
		l1.Load(addr, true, 0, cb)
		settle(t, f)
	})
	if f.Dirs[9].Stats.GetS < 2 {
		t.Fatalf("home saw %d GetS, want one per round", f.Dirs[9].Stats.GetS)
	}
}

// TestGetXStormAllocatesNothing runs rounds of the lock hand-off storm:
// a release write-through recalls every copy, then all 64 L1s race a
// SWAP, so the home fans out invalidations and serves 63 losers.
func TestGetXStormAllocatesNothing(t *testing.T) {
	f := table1Fabric(t)
	addr := f.Homes.AddrForHome(27, 0)
	swapped := func(uint64) {}
	released := func() {}
	round := func() {
		f.L1s[0].StoreRelease(addr, 0, true, 0, released)
		settle(t, f)
		for _, l1 := range f.L1s {
			l1.Atomic(addr, Swap, 1, 0, 0, swapped)
		}
		settle(t, f)
	}
	before := f.Dirs[27].Stats
	requireNoAllocs(t, "64-L1 GetX storm round", round)
	after := f.Dirs[27].Stats
	if after.GetX-before.GetX < 64 || after.InvsSent == before.InvsSent {
		t.Fatalf("no storm measured: GetX %d -> %d, invalidations %d -> %d",
			before.GetX, after.GetX, before.InvsSent, after.InvsSent)
	}
}

// runProtocolError runs f until it fails and returns the error, which must
// be a *ProtocolError.
func runProtocolError(t *testing.T, f *Fabric) *ProtocolError {
	t.Helper()
	_, err := f.Eng.Run(10_000, func() bool { return f.Net.InFlight() == 0 && f.Eng.PendingEvents() == 0 })
	var perr *ProtocolError
	if !errors.As(err, &perr) {
		t.Fatalf("run ended with %v, want a *ProtocolError", err)
	}
	return perr
}

func TestReleasedMessageDispatchIsProtocolError(t *testing.T) {
	for _, toDir := range []bool{false, true} {
		f := smallFabric(t)
		// A stray InvAck: the L1 absorbs and releases it.
		m := f.Msgs.New(Message{Type: MsgInvAck, Addr: 0x80, AckFor: 1})
		f.L1s[2].Receive(f.Eng.Now(), m)
		if m.Type != msgReleased {
			t.Fatalf("consumed message has Type %v, want the released sentinel", m.Type)
		}
		// Planted use after release: the same message is delivered again.
		m.ToDir = toDir
		ni := f.Net.NI(1)
		ni.Inject(packetFor(ni, m, 2, respPriority))
		perr := runProtocolError(t, f)
		if want := map[bool]string{false: "l1", true: "dir"}[toDir]; perr.Component != want || perr.Node != 2 {
			t.Fatalf("error from %s %d, want %s 2: %v", perr.Component, perr.Node, want, perr)
		}
	}
}

func TestDoubleReleaseIsProtocolError(t *testing.T) {
	f := smallFabric(t)
	m := f.Msgs.New(Message{Type: MsgUnblock, Addr: 0x80, Requestor: 1})
	d := f.Dirs[1]
	// Planted double release: the home absorbs the response twice.
	f.Eng.Schedule(0, func() {
		d.release(m)
		d.release(m)
	})
	perr := runProtocolError(t, f)
	if perr.Component != "dir" || perr.Node != 1 {
		t.Fatalf("error from %s %d, want dir 1: %v", perr.Component, perr.Node, perr)
	}
	if n := len(f.Msgs.free); n != 1 {
		t.Fatalf("free list holds %d messages after a double release, want 1", n)
	}
}

// TestMakeDirAllocatesNothing pins the first-write maps: a directory
// makes its maps with the first line it homes, so filling its slot in the
// fabric's directory slab allocates nothing.
func TestMakeDirAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	var d Dir
	if n := testing.AllocsPerRun(20, func() { d = makeDir(eng, 0, nil, nil, nil, DefaultDirConfig(), 64) }); n != 0 {
		t.Fatalf("makeDir made %.1f allocations, want 0", n)
	}
	if d.lines != nil {
		t.Fatal("makeDir made the line map")
	}
}
