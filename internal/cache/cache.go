// Package cache implements the storage structures shared by the L1 and L2
// controllers: set-associative arrays with LRU replacement, per-line
// coherence state and data, and MSHR (miss status holding register) tables.
//
// The coherence protocol itself lives in internal/coherence; this package
// only stores state. Lines carry a single 64-bit data word: the simulator
// tracks real values (locks need them) but not full 128-byte block
// contents.
package cache

import "fmt"

// State is a MOESI coherence state. Transient states are tracked by the
// controllers, not the array.
type State int

// MOESI stable states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

// String returns the one-letter MOESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Line is one cache line.
type Line struct {
	Addr  uint64 // block-aligned address
	State State
	Data  uint64
	lru   uint64 // larger = more recently used
}

// Config describes one cache level's geometry.
type Config struct {
	SizeBytes  int
	Ways       int
	BlockBytes int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.BlockBytes) }

// Cache is a set-associative array with true-LRU replacement.
//
// The lines live in one packed slab, in fill order, the way MSHR keeps
// its entries: a many-core platform builds an L1 per node, but only the
// nodes that run threads ever fill theirs, and a lock-bound thread's L1
// holds a handful of lines. The slab is created on the first fill with
// room for Ways lines and doubles as needed, never past Sets×Ways. Set
// associativity is a replacement rule: a line belongs to the set its
// Addr maps to, and no set holds more than Ways lines in the slab. An
// invalidated line keeps its slot for the next fill of its set, so the
// eviction choice is the set-major array's: the same candidates with the
// same LRU stamps. Until the first fill the cache reads as empty.
//
// Growth moves lines: a *Line from Lookup, Peek or Victim is valid only
// until the next Victim or Insert on the same cache. Use it within one
// call that fills nothing in between.
type Cache struct {
	cfg     Config
	lines   []Line // every line ever filled, in fill order
	clock   uint64
	blkOff  uint // log2(BlockBytes)
	setMask uint64
}

// Make builds a cache, by value for the controller to embed. The geometry
// must give a power-of-two number of sets and a power-of-two block size.
func Make(cfg Config) (Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes <= 0 {
		return Cache{}, fmt.Errorf("cache: invalid geometry %+v", cfg)
	}
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		return Cache{}, fmt.Errorf("cache: set count %d is not a positive power of two", sets)
	}
	if cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		return Cache{}, fmt.Errorf("cache: block size %d is not a power of two", cfg.BlockBytes)
	}
	c := Cache{cfg: cfg, setMask: uint64(sets - 1)}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		c.blkOff++
	}
	return c, nil
}

// BlockAlign returns addr rounded down to its block boundary.
func (c *Cache) BlockAlign(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.BlockBytes) - 1)
}

// setIndex maps a block address to its set.
func (c *Cache) setIndex(addr uint64) uint64 {
	return (addr >> c.blkOff) & c.setMask
}

// Lookup returns the line holding addr (block-aligned internally), or nil.
// A hit refreshes LRU state.
func (c *Cache) Lookup(addr uint64) *Line {
	l := c.Peek(addr)
	if l != nil {
		c.clock++
		l.lru = c.clock
	}
	return l
}

// Peek is Lookup without touching LRU state; for invariant checks.
func (c *Cache) Peek(addr uint64) *Line {
	addr = c.BlockAlign(addr)
	for i := range c.lines {
		if c.lines[i].State != Invalid && c.lines[i].Addr == addr {
			return &c.lines[i]
		}
	}
	return nil
}

// Victim returns the line that would be evicted to make room for addr:
// an invalid line of addr's set if one exists; while the set holds fewer
// than Ways lines, a new invalid line stamped with addr; otherwise the
// set's LRU line. The returned line may still hold live state; the
// caller is responsible for writeback.
func (c *Cache) Victim(addr uint64) *Line {
	addr = c.BlockAlign(addr)
	set := c.setIndex(addr)
	var victim *Line
	held := 0
	for i := range c.lines {
		l := &c.lines[i]
		if c.setIndex(l.Addr) != set {
			continue
		}
		if l.State == Invalid {
			return l
		}
		held++
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	if held < c.cfg.Ways {
		return c.appendLine(addr)
	}
	return victim
}

// appendLine adds an invalid line for addr to the slab, creating it with
// room for Ways lines or doubling it, never past Sets×Ways.
func (c *Cache) appendLine(addr uint64) *Line {
	n := len(c.lines)
	if n == cap(c.lines) {
		grown := make([]Line, n, min(max(2*n, c.cfg.Ways), c.cfg.Sets()*c.cfg.Ways))
		copy(grown, c.lines)
		c.lines = grown
	}
	c.lines = append(c.lines, Line{Addr: addr})
	return &c.lines[n]
}

// Insert fills a line for addr, evicting the victim. It returns the
// inserted line and, when ok, the valid line it displaced, by value, for
// writeback handling. Inserting an address already present updates the
// existing line in place instead of duplicating it.
func (c *Cache) Insert(addr uint64, st State, data uint64) (line *Line, evicted Line, ok bool) {
	addr = c.BlockAlign(addr)
	if l := c.Lookup(addr); l != nil {
		l.State = st
		l.Data = data
		return l, Line{}, false
	}
	v := c.Victim(addr)
	if v.State != Invalid {
		evicted, ok = *v, true
	}
	c.clock++
	*v = Line{Addr: addr, State: st, Data: data, lru: c.clock}
	return v, evicted, ok
}

// Invalidate drops addr from the cache if present.
func (c *Cache) Invalidate(addr uint64) {
	if l := c.Peek(addr); l != nil {
		l.State = Invalid
	}
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			n++
		}
	}
	return n
}
