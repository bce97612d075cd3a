package coherence

import (
	"fmt"
	"slices"
	"testing"

	"inpg/internal/cache"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

// Targeted transition tests for the lock-specific protocol paths: the
// failed-swap fast path, the owner peek (downgrade and yield outcomes),
// the release write-through recall, and the fill/invalidation race.

func TestFailedSwapFastPath(t *testing.T) {
	f := smallFabric(t)
	addr := f.Homes.AddrForHome(6, 0)
	step := 0
	// Seed the lock word to 1 via the home (release write-through), so no
	// owner exists and the home's value is current.
	f.L1s[0].StoreRelease(addr, 1, true, 0, func() { step = 1 })
	runUntil(t, f, 10000, func() bool { return step == 1 })
	// A swap of 1 over 1 is a no-op: it must fail fast at the home with a
	// shared peek copy and NO ownership transfer.
	var old uint64
	f.L1s[9].Atomic(addr, Swap, 1, 0, 0, func(v uint64) { old = v; step = 2 })
	runUntil(t, f, 10000, func() bool { return step == 2 })
	if old != 1 {
		t.Fatalf("failed swap returned %d, want 1", old)
	}
	ln := f.L1s[9].Cache().Peek(addr)
	if ln == nil || ln.State != cache.Shared {
		t.Fatalf("loser's line = %+v, want a Shared peek copy", ln)
	}
	_, owner, sharers, _ := f.Dirs[6].LineInfo(addr)
	if owner != -1 {
		t.Fatalf("owner = %d, want none (no ownership transfer)", owner)
	}
	if len(sharers) == 0 {
		t.Fatal("loser not registered as sharer")
	}
	if f.Dirs[6].Stats.SwapFails != 1 {
		t.Fatalf("SwapFails = %d, want 1", f.Dirs[6].Stats.SwapFails)
	}
}

func TestOwnerPeekDowngrade(t *testing.T) {
	f := smallFabric(t)
	addr := f.Homes.AddrForHome(2, 0)
	step := 0
	// Winner takes the lock for real: swap 1 over 0 via full GetX.
	f.L1s[4].Atomic(addr, Swap, 1, 0, 0, func(old uint64) {
		if old != 0 {
			t.Errorf("winner's swap old = %d, want 0", old)
		}
		step = 1
	})
	runUntil(t, f, 10000, func() bool { return step == 1 })
	if ln := f.L1s[4].Cache().Peek(addr); ln == nil || ln.State != cache.Modified {
		t.Fatalf("winner's line = %+v, want Modified", ln)
	}
	// A loser's swap is forwarded to the owner, which downgrades and
	// serves a shared copy; the home's value becomes current via CopyBack.
	var old uint64
	f.L1s[11].Atomic(addr, Swap, 1, 0, 0, func(v uint64) { old = v; step = 2 })
	runUntil(t, f, 10000, func() bool { return step == 2 })
	if err := f.Settle(10000); err != nil { // let the CopyBack land
		t.Fatal(err)
	}
	if old != 1 {
		t.Fatalf("loser's swap old = %d, want 1", old)
	}
	if ln := f.L1s[4].Cache().Peek(addr); ln == nil || ln.State != cache.Shared {
		t.Fatalf("owner after peek = %+v, want downgraded to Shared", ln)
	}
	val, owner, _, _ := f.Dirs[2].LineInfo(addr)
	if owner != -1 || val != 1 {
		t.Fatalf("home after copyback: owner=%d val=%d, want none/1", owner, val)
	}
	if f.L1s[4].Stats.ProbesServed != 1 {
		t.Fatalf("ProbesServed = %d, want 1", f.L1s[4].Stats.ProbesServed)
	}
}

func TestOwnerPeekYieldOnReleasedLock(t *testing.T) {
	f := smallFabric(t)
	addr := f.Homes.AddrForHome(3, 0)
	step := 0
	// Owner holds the line in M with value 0 (acquired then locally
	// released — a plain store keeps it M).
	f.L1s[1].Atomic(addr, Swap, 1, 0, 0, func(uint64) {
		f.L1s[1].Store(addr, 0, false, 0, func() { step = 1 })
	})
	runUntil(t, f, 10000, func() bool { return step == 1 })
	// Another swap probes the owner, finds 0 != 1, so the owner yields:
	// the prober wins the lock outright.
	var old uint64
	f.L1s[14].Atomic(addr, Swap, 1, 0, 0, func(v uint64) { old = v; step = 2 })
	runUntil(t, f, 10000, func() bool { return step == 2 })
	if old != 0 {
		t.Fatalf("prober's swap old = %d, want 0 (lock acquired)", old)
	}
	if ln := f.L1s[14].Cache().Peek(addr); ln == nil || ln.State != cache.Modified || ln.Data != 1 {
		t.Fatalf("prober's line = %+v, want M/1", ln)
	}
	if ln := f.L1s[1].Cache().Peek(addr); ln != nil {
		t.Fatalf("yielding owner still holds %v", ln.State)
	}
}

func TestReleaseRecallsAllCopies(t *testing.T) {
	f := smallFabric(t)
	addr := f.Homes.AddrForHome(7, 0)
	// Three spinners hold shared copies of value 1.
	step := 0
	f.L1s[0].StoreRelease(addr, 1, true, 0, func() { step = 1 })
	runUntil(t, f, 10000, func() bool { return step == 1 })
	got := 0
	for _, id := range []int{2, 5, 9} {
		f.L1s[id].Load(addr, true, 0, func(uint64) { got++ })
	}
	runUntil(t, f, 10000, func() bool { return got == 3 })
	// Release write-through of 0: all three copies recalled, value at home.
	done := false
	f.L1s[0].StoreRelease(addr, 0, true, 0, func() { done = true })
	runUntil(t, f, 10000, func() bool { return done })
	for _, id := range []int{2, 5, 9} {
		if ln := f.L1s[id].Cache().Peek(addr); ln != nil {
			t.Fatalf("core %d copy not recalled: %v", id, ln.State)
		}
	}
	val, owner, sharers, busy := f.Dirs[7].LineInfo(addr)
	if val != 0 || owner != -1 || len(sharers) != 0 || busy {
		t.Fatalf("home after release: val=%d owner=%d sharers=%v busy=%v", val, owner, sharers, busy)
	}
	if f.Dirs[7].Stats.Releases != 2 {
		t.Fatalf("Releases = %d, want 2", f.Dirs[7].Stats.Releases)
	}
}

func TestReleaseRecallsOwnerCopy(t *testing.T) {
	f := smallFabric(t)
	addr := f.Homes.AddrForHome(4, 0)
	step := 0
	// Another core owns the line (took the lock for real).
	f.L1s[8].Atomic(addr, Swap, 1, 0, 0, func(uint64) { step = 1 })
	runUntil(t, f, 10000, func() bool { return step == 1 })
	// A different core (the logical holder in a bounced-ownership
	// scenario) releases by write-through: the owner's M copy must be
	// recalled, not ignored.
	done := false
	f.L1s[3].StoreRelease(addr, 0, true, 0, func() { done = true })
	runUntil(t, f, 10000, func() bool { return done })
	if ln := f.L1s[8].Cache().Peek(addr); ln != nil {
		t.Fatalf("owner copy survived release recall: %v", ln.State)
	}
	val, owner, _, _ := f.Dirs[4].LineInfo(addr)
	if val != 0 || owner != -1 {
		t.Fatalf("home after recall: val=%d owner=%d", val, owner)
	}
}

func TestFillInvalidationRace(t *testing.T) {
	f := smallFabric(t)
	addr := f.Homes.AddrForHome(10, 0)
	// Reader 6 starts a fill; before the data can arrive we complete a
	// release write-through that invalidates it in flight. The reader's
	// load completes (with the pre-release value) but must NOT install a
	// stale line.
	step := 0
	f.L1s[0].StoreRelease(addr, 1, true, 0, func() { step = 1 })
	runUntil(t, f, 10000, func() bool { return step == 1 })
	loaded := false
	f.L1s[6].Load(addr, true, 0, func(uint64) { loaded = true })
	released := false
	// Issue the racing release a few cycles later, while the fill travels.
	f.Eng.Schedule(2, func() {
		f.L1s[0].StoreRelease(addr, 0, true, 0, func() { released = true })
	})
	runUntil(t, f, 20000, func() bool { return loaded && released })
	// Whatever the interleaving, a surviving copy at reader 6 must not be
	// stale: if present it must hold the post-release value.
	if ln := f.L1s[6].Cache().Peek(addr); ln != nil && ln.Data != 0 {
		t.Fatalf("reader kept a stale copy: %+v", ln)
	}
	if err := f.CheckInvariants([]uint64{addr}); err != nil {
		t.Fatal(err)
	}
}

func TestStrayWritebackAcknowledged(t *testing.T) {
	f := smallFabric(t)
	// Force an eviction of a dirty line while a conflicting address is
	// written, then confirm the evicting L1's writeback buffer drains.
	base := f.Homes.AddrForHome(1, 0)
	conflict := func(i int) uint64 { return base + uint64(i)*8192*2 }
	step := 0
	var chain func(i int)
	chain = func(i int) {
		if i == 5 {
			step = 1
			return
		}
		f.L1s[2].Store(conflict(i), uint64(i), false, 0, func() { chain(i + 1) })
	}
	chain(0)
	runUntil(t, f, 200000, func() bool { return step == 1 })
	if err := f.Settle(50000); err != nil {
		t.Fatal(err)
	}
	if n := len(f.L1s[2].evict); n != 0 {
		t.Fatalf("writeback buffer holds %d entries after quiesce", n)
	}
}

// TestSharersStraddleBitsetWords places sharers on both sides of the
// sharer bitset's 64-bit word boundaries of a 16×16 mesh: LineInfo lists
// them in ascending order, and one GetX invalidates exactly them.
func TestSharersStraddleBitsetWords(t *testing.T) {
	cfg := DefaultFabricConfig()
	cfg.Net.Mesh = noc.Mesh{Width: 16, Height: 16}
	f, err := NewFabric(sim.NewEngine(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	home := noc.NodeID(100)
	addr := f.Homes.AddrForHome(home, 0)
	want := []noc.NodeID{0, 63, 64, 255}
	got := 0
	for _, id := range []noc.NodeID{255, 64, 0, 63} { // out of order on purpose
		f.L1s[id].Load(addr, true, 0, func(uint64) { got++ })
	}
	runUntil(t, f, 100_000, func() bool { return got == len(want) })
	for i := 0; i < 2; i++ { // two calls must agree
		if _, owner, sharers, _ := f.Dirs[home].LineInfo(addr); fmt.Sprint(sharers) != fmt.Sprint(want) || owner != -1 {
			t.Fatalf("LineInfo sharers = %v owner %d, want %v and no owner", sharers, owner, want)
		}
	}

	done := false
	f.L1s[17].Store(addr, 9, false, 0, func() { done = true })
	runUntil(t, f, 100_000, func() bool { return done })
	if err := f.Settle(100_000); err != nil {
		t.Fatal(err)
	}
	if n := f.Dirs[home].Stats.InvsSent; n != uint64(len(want)) {
		t.Fatalf("home sent %d invalidations, want %d", n, len(want))
	}
	for id, l1 := range f.L1s {
		invalidated := l1.Stats.InvsReceived == 1
		if isSharer := slices.Contains(want, noc.NodeID(id)); invalidated != isSharer {
			t.Fatalf("node %d received %d invalidations, sharer=%v", id, l1.Stats.InvsReceived, isSharer)
		}
	}
	if _, owner, sharers, _ := f.Dirs[home].LineInfo(addr); owner != 17 || len(sharers) != 0 {
		t.Fatalf("after the GetX: owner %d sharers %v, want owner 17 and none", owner, sharers)
	}
}
