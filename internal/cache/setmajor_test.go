package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// setMajor is the set-major array Cache replaced, kept as the reference
// for the differential tests below: set s occupies lines[s*Ways:(s+1)*Ways],
// an invalid way is filled before any valid one is evicted, and the
// victim among valid ways is the least recently used.
type setMajor struct {
	cfg     Config
	lines   []Line
	clock   uint64
	blkOff  uint
	setMask uint64
}

func newSetMajor(cfg Config) *setMajor {
	c := &setMajor{cfg: cfg, lines: make([]Line, cfg.Sets()*cfg.Ways), setMask: uint64(cfg.Sets() - 1)}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		c.blkOff++
	}
	return c
}

func (c *setMajor) blockAlign(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.BlockBytes) - 1)
}

func (c *setMajor) set(addr uint64) []Line {
	s := int((addr>>c.blkOff)&c.setMask) * c.cfg.Ways
	return c.lines[s : s+c.cfg.Ways]
}

func (c *setMajor) Lookup(addr uint64) *Line {
	if l := c.Peek(addr); l != nil {
		c.clock++
		l.lru = c.clock
		return l
	}
	return nil
}

func (c *setMajor) Peek(addr uint64) *Line {
	addr = c.blockAlign(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

func (c *setMajor) Victim(addr uint64) *Line {
	set := c.set(c.blockAlign(addr))
	var victim *Line
	for i := range set {
		if set[i].State == Invalid {
			return &set[i]
		}
		if victim == nil || set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	return victim
}

func (c *setMajor) Insert(addr uint64, st State, data uint64) (*Line, Line, bool) {
	addr = c.blockAlign(addr)
	if l := c.Lookup(addr); l != nil {
		l.State = st
		l.Data = data
		return l, Line{}, false
	}
	v := c.Victim(addr)
	var evicted Line
	ok := v.State != Invalid
	if ok {
		evicted = *v
	}
	c.clock++
	*v = Line{Addr: addr, State: st, Data: data, lru: c.clock}
	return v, evicted, ok
}

func (c *setMajor) Invalidate(addr uint64) {
	if l := c.Peek(addr); l != nil {
		l.State = Invalid
	}
}

func (c *setMajor) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			n++
		}
	}
	return n
}

// diffGeometries are the shapes the differential drives: direct-mapped,
// 2-way, a single fully associative set, and Table 1's L1.
var diffGeometries = []Config{
	{SizeBytes: 512, Ways: 1, BlockBytes: 64},
	{SizeBytes: 1024, Ways: 2, BlockBytes: 64},
	{SizeBytes: 512, Ways: 4, BlockBytes: 128},
	{SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 128},
}

// cacheDiff drives a Cache and the set-major reference with the same
// operations. lastGot and lastRef are the lines the latest Lookup, Peek,
// Victim or Insert returned on each side, which later ops write through
// as the L1 controller does.
type cacheDiff struct {
	got              Cache
	ref              *setMajor
	lastGot, lastRef *Line
}

func newCacheDiff(cfg Config) (*cacheDiff, error) {
	got, err := Make(cfg)
	if err != nil {
		return nil, err
	}
	return &cacheDiff{got: got, ref: newSetMajor(cfg)}, nil
}

// sameLine compares two returned lines: both nil, or both invalid, or both
// valid with equal address, state and data. An invalid line's other
// fields are a free slot's leftovers, which nothing reads.
func sameLine(a, b *Line) bool {
	switch {
	case a == nil || b == nil:
		return a == b
	case a.State == Invalid || b.State == Invalid:
		return a.State == b.State
	}
	return a.Addr == b.Addr && a.State == b.State && a.Data == b.Data
}

// step applies one operation, decoded from kind, a and d, to both caches
// and returns a description of any divergence.
func (c *cacheDiff) step(kind, a byte, d uint64) error {
	blk := uint64(c.got.cfg.BlockBytes)
	// Addresses spread over 64 blocks, offset within the block so that
	// block alignment is exercised too.
	addr := uint64(a%64)*blk + uint64(a/64)*(blk/4)
	switch kind % 7 {
	case 0:
		st := State(1 + d%4)
		gl, gev, gok := c.got.Insert(addr, st, d)
		rl, rev, rok := c.ref.Insert(addr, st, d)
		c.lastGot, c.lastRef = gl, rl
		if !sameLine(gl, rl) || gok != rok || (gok && gev != rev) {
			return fmt.Errorf("Insert(%#x, %v, %d) = %+v, %+v, %v; reference %+v, %+v, %v", addr, st, d, gl, gev, gok, rl, rev, rok)
		}
	case 1:
		c.lastGot, c.lastRef = c.got.Lookup(addr), c.ref.Lookup(addr)
		if !sameLine(c.lastGot, c.lastRef) {
			return fmt.Errorf("Lookup(%#x) = %+v; reference %+v", addr, c.lastGot, c.lastRef)
		}
	case 2:
		c.lastGot, c.lastRef = c.got.Peek(addr), c.ref.Peek(addr)
		if !sameLine(c.lastGot, c.lastRef) {
			return fmt.Errorf("Peek(%#x) = %+v; reference %+v", addr, c.lastGot, c.lastRef)
		}
	case 3:
		c.got.Invalidate(addr)
		c.ref.Invalidate(addr)
	case 4:
		c.lastGot, c.lastRef = c.got.Victim(addr), c.ref.Victim(addr)
		if !sameLine(c.lastGot, c.lastRef) {
			return fmt.Errorf("Victim(%#x) = %+v; reference %+v", addr, c.lastGot, c.lastRef)
		}
	case 5:
		// Invalidate through the returned pointer, as L1.onInv does.
		if c.lastGot != nil {
			c.lastGot.State, c.lastRef.State = Invalid, Invalid
		}
	case 6:
		// Write a hit line through its pointer, as a store hit does.
		if c.lastGot != nil && c.lastGot.State != Invalid {
			c.lastGot.State, c.lastGot.Data = Modified, d
			c.lastRef.State, c.lastRef.Data = Modified, d
		}
	}
	return c.check()
}

// check asserts the slab's shape and that both caches hold the same
// number of valid lines.
func (c *cacheDiff) check() error {
	cfg := c.got.cfg
	if n := len(c.got.lines); n > cfg.Sets()*cfg.Ways || cap(c.got.lines) > cfg.Sets()*cfg.Ways {
		return fmt.Errorf("slab holds %d lines (cap %d), limit %d", n, cap(c.got.lines), cfg.Sets()*cfg.Ways)
	}
	perSet := map[uint64]int{}
	for i := range c.got.lines {
		s := c.got.setIndex(c.got.lines[i].Addr)
		if perSet[s]++; perSet[s] > cfg.Ways {
			return fmt.Errorf("set %d holds %d lines, %d ways", s, perSet[s], cfg.Ways)
		}
	}
	if g, r := c.got.Occupancy(), c.ref.Occupancy(); g != r {
		return fmt.Errorf("occupancy %d; reference %d", g, r)
	}
	return nil
}

// TestCacheMatchesSetMajorReference drives the packed slab and the
// set-major reference with seeded random operations: every hit or miss,
// returned line, eviction and occupancy must agree, and no set may ever
// hold more than Ways lines.
func TestCacheMatchesSetMajorReference(t *testing.T) {
	for gi, cfg := range diffGeometries {
		for seq := 0; seq < 300; seq++ {
			rng := rand.New(rand.NewSource(int64(gi*1000 + seq)))
			c, err := newCacheDiff(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				if err := c.step(byte(rng.Intn(7)), byte(rng.Intn(256)), uint64(rng.Intn(1000))); err != nil {
					t.Fatalf("geometry %+v, sequence %d, op %d: %v", cfg, seq, i, err)
				}
			}
		}
	}
}

// FuzzCacheMatchesSetMajorReference is the same differential over
// fuzzer-chosen operations: the first byte picks the geometry, then each
// triple of bytes is one operation's kind, address and data.
func FuzzCacheMatchesSetMajorReference(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 64, 2, 0, 128, 3, 5, 0, 0, 4, 0, 0})
	f.Add([]byte{0, 0, 1, 1, 0, 9, 2, 3, 1, 0, 4, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		c, err := newCacheDiff(diffGeometries[int(ops[0])%len(diffGeometries)])
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i+2 < len(ops); i += 3 {
			if err := c.step(ops[i], ops[i+1], uint64(ops[i+2])); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
		}
	})
}
