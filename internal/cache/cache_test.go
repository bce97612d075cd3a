package cache

import (
	"fmt"
	"testing"
	"testing/quick"
)

func small(t *testing.T) *Cache {
	t.Helper()
	c, err := Make(Config{SizeBytes: 2048, Ways: 4, BlockBytes: 128}) // 4 sets
	if err != nil {
		t.Fatal(err)
	}
	return &c
}

func TestGeometry(t *testing.T) {
	cfg := Config{SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 128}
	if cfg.Sets() != 64 {
		t.Fatalf("L1 sets = %d, want 64", cfg.Sets())
	}
}

func TestRejectBadGeometry(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 4, BlockBytes: 128},
		{SizeBytes: 3000, Ways: 4, BlockBytes: 128}, // non-power-of-two sets
		{SizeBytes: 2048, Ways: 4, BlockBytes: 100}, // non-power-of-two block
	}
	for i, cfg := range bad {
		if _, err := Make(cfg); err == nil {
			t.Fatalf("config %d accepted, want error", i)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := small(t)
	if c.Lookup(0x1000) != nil {
		t.Fatal("cold cache must miss")
	}
	c.Insert(0x1000, Shared, 7)
	l := c.Lookup(0x1000)
	if l == nil || l.Data != 7 || l.State != Shared {
		t.Fatalf("lookup after insert = %+v", l)
	}
}

func TestBlockAlignSharing(t *testing.T) {
	c := small(t)
	c.Insert(0x1008, Modified, 1)
	if c.Lookup(0x1000) == nil || c.Lookup(0x107f) == nil {
		t.Fatal("addresses within one block must hit the same line")
	}
	if c.Lookup(0x1080) != nil {
		t.Fatal("next block must not hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t) // 4 sets, 4 ways; set stride = 128 bytes, wrap = 512.
	// Fill one set (set 0): addresses 0, 512, 1024, 1536.
	for i := 0; i < 4; i++ {
		c.Insert(uint64(i*512), Shared, uint64(i))
	}
	c.Lookup(0) // make line 0 most recently used
	_, ev, ok := c.Insert(4*512, Shared, 99)
	if !ok {
		t.Fatal("full set must evict")
	}
	if ev.Addr != 512 {
		t.Fatalf("evicted %#x, want %#x (LRU, not MRU)", ev.Addr, 512)
	}
	if c.Lookup(0) == nil {
		t.Fatal("MRU line must survive")
	}
}

// TestEvictingInsertAllocatesNothing pins that an Insert displacing a
// valid line hands the line back by value, not as a heap copy.
func TestEvictingInsertAllocatesNothing(t *testing.T) {
	c := small(t)
	for i := 0; i < 4; i++ {
		c.Insert(uint64(i*512), Shared, uint64(i))
	}
	next := uint64(4)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := c.Insert(next*512, Modified, next); !ok {
			t.Fatal("insert into a full set did not evict")
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("evicting Insert made %.1f allocations, want 0", allocs)
	}
}

func TestInsertPrefersInvalidWay(t *testing.T) {
	c := small(t)
	c.Insert(0, Shared, 0)
	c.Insert(512, Shared, 0)
	c.Invalidate(0)
	_, ev, ok := c.Insert(1024, Shared, 0)
	if ok {
		t.Fatalf("insert with invalid way available evicted %+v", ev)
	}
	if c.Lookup(512) == nil {
		t.Fatal("valid line lost")
	}
}

func TestInvalidate(t *testing.T) {
	c := small(t)
	c.Insert(0x40, Modified, 3)
	c.Invalidate(0x40)
	if c.Lookup(0x40) != nil {
		t.Fatal("line still present after invalidate")
	}
	c.Invalidate(0xdead00) // absent: must not panic
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	c := small(t)
	for i := 0; i < 4; i++ {
		c.Insert(uint64(i*512), Shared, 0)
	}
	c.Peek(0) // must NOT refresh
	_, ev, ok := c.Insert(4*512, Shared, 0)
	if !ok || ev.Addr != 0 {
		t.Fatalf("evicted %+v, want line 0 (Peek must not refresh LRU)", ev)
	}
}

func TestUnfilledCacheReadsEmpty(t *testing.T) {
	c := small(t)
	if c.Lookup(0x1000) != nil || c.Peek(0x1000) != nil {
		t.Fatal("unfilled cache must miss")
	}
	c.Invalidate(0x1000)
	if c.Occupancy() != 0 {
		t.Fatalf("unfilled cache occupancy = %d, want 0", c.Occupancy())
	}
	if c.lines != nil {
		t.Fatal("reads allocated the line array")
	}
	if v := c.Victim(0x1000); v == nil || v.State != Invalid {
		t.Fatalf("first Victim = %+v, want an invalid way", v)
	}
}

func TestMakeAllocatesNothing(t *testing.T) {
	cfg := Config{SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 128}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Make(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Make made %.0f allocations, want 0: the line slab waits for the first fill", allocs)
	}
}

// TestFillingWaysLinesAllocatesOnce pins the slab's first size: a Table 1
// L1 that fills Ways lines, in any sets, allocates once, for Ways lines.
func TestFillingWaysLinesAllocatesOnce(t *testing.T) {
	cfg := Config{SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 128}
	var c Cache
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if c, err = Make(cfg); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.Ways; i++ {
			c.Insert(uint64(i*1000*cfg.BlockBytes), Modified, uint64(i))
		}
	})
	if allocs != 1 || cap(c.lines) != cfg.Ways || c.Occupancy() != cfg.Ways {
		t.Fatalf("filling %d lines: %.0f allocations, slab cap %d, occupancy %d; want 1, %d, %d",
			cfg.Ways, allocs, cap(c.lines), c.Occupancy(), cfg.Ways, cfg.Ways)
	}
}

func TestOccupancy(t *testing.T) {
	c := small(t)
	if c.Occupancy() != 0 {
		t.Fatal("new cache not empty")
	}
	c.Insert(0, Shared, 0)
	c.Insert(128, Shared, 0)
	if c.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", c.Occupancy())
	}
}

// TestCacheVsMapModel property-checks the cache against a reference model:
// any value inserted and not since evicted or invalidated must read back
// exactly; any hit must return the last written data.
func TestCacheVsMapModel(t *testing.T) {
	type op struct {
		Kind byte
		Addr uint16
		Data uint64
	}
	f := func(ops []op) bool {
		c, err := Make(Config{SizeBytes: 1024, Ways: 2, BlockBytes: 64})
		if err != nil {
			return false
		}
		model := map[uint64]uint64{}
		for _, o := range ops {
			addr := c.BlockAlign(uint64(o.Addr))
			switch o.Kind % 3 {
			case 0: // insert
				_, ev, ok := c.Insert(addr, Modified, o.Data)
				model[addr] = o.Data
				if ok {
					if want, ok := model[ev.Addr]; !ok || want != ev.Data {
						return false // evicted line must carry last written data
					}
					delete(model, ev.Addr)
				}
			case 1: // lookup
				l := c.Lookup(addr)
				want, ok := model[addr]
				if (l != nil) != ok {
					return false
				}
				if l != nil && l.Data != want {
					return false
				}
			case 2: // invalidate
				c.Invalidate(addr)
				delete(model, addr)
			}
		}
		return c.Occupancy() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRAllocateGetFree(t *testing.T) {
	m := MakeMSHR[int](2)
	e := m.Allocate(0x100)
	if e == nil {
		t.Fatal("allocate failed on empty MSHR")
	}
	if m.Allocate(0x100) != nil {
		t.Fatal("duplicate allocation must fail")
	}
	if m.Get(0x100) != e {
		t.Fatal("Get returned wrong entry")
	}
	m.Allocate(0x200)
	if !m.Full() || m.Allocate(0x300) != nil {
		t.Fatal("capacity not enforced")
	}
	m.Free(0x100)
	if m.Len() != 1 || m.Get(0x100) != nil {
		t.Fatal("free did not release entry")
	}
	if m.Allocate(0x300) == nil {
		t.Fatal("allocation after free must succeed")
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Owned: "O", Modified: "M"}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

func TestMSHRCountersAndEntryOrder(t *testing.T) {
	m := MakeMSHR[string](3)
	for _, a := range []uint64{0x300, 0x100, 0x200} {
		m.Allocate(a).Op = fmt.Sprint(a)
	}
	m.Allocate(0x400) // full
	m.Free(0x300)     // the last entry moves into the freed slot
	m.Allocate(0x100) // duplicate
	if e := m.Get(0x200); e == nil || e.Op != "512" {
		t.Fatalf("entry for 0x200 lost its op after a free: %+v", e)
	}
	m.Allocate(0x050).Op = "80"
	var got []uint64
	for _, e := range m.Entries() {
		got = append(got, e.Addr)
	}
	if fmt.Sprint(got) != "[80 256 512]" {
		t.Fatalf("Entries addresses = %v, want ascending [80 256 512]", got)
	}
	if m.Len() != 3 || m.Peak() != 3 || m.Allocs() != 4 || m.Rejects() != 2 {
		t.Fatalf("Len %d Peak %d Allocs %d Rejects %d, want 3 3 4 2", m.Len(), m.Peak(), m.Allocs(), m.Rejects())
	}
}

func TestMSHRCycleAllocatesNothing(t *testing.T) {
	m := MakeMSHR[int](32)
	cycle := func() {
		m.Allocate(0x80).Op = 7
		if e := m.Get(0x80); e == nil || e.Op != 7 {
			t.Fatal("Get lost the entry")
		}
		m.Free(0x80)
	}
	cycle() // creates the slab
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Allocate/Get/Free: %.1f allocations per cycle, want 0", n)
	}
}
