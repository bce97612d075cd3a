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
// The lines live in one set-major array (set s occupies
// lines[s*Ways:(s+1)*Ways]) that is allocated on the first fill: a
// many-core platform builds an L1 per node, but only the nodes that run
// threads ever fill theirs. Until then the cache reads as empty.
type Cache struct {
	cfg     Config
	lines   []Line // nil until the first Insert or Victim
	clock   uint64
	blkOff  uint // log2(BlockBytes)
	setMask uint64
}

// New builds a cache. The geometry must give a power-of-two number of sets
// and a power-of-two block size.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry %+v", cfg)
	}
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d is not a positive power of two", sets)
	}
	if cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		return nil, fmt.Errorf("cache: block size %d is not a power of two", cfg.BlockBytes)
	}
	c := &Cache{cfg: cfg, setMask: uint64(sets - 1)}
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

// set returns the ways of addr's set; nil while the cache is unfilled.
func (c *Cache) set(addr uint64) []Line {
	if c.lines == nil {
		return nil
	}
	s := int(c.setIndex(addr)) * c.cfg.Ways
	return c.lines[s : s+c.cfg.Ways]
}

// Lookup returns the line holding addr (block-aligned internally), or nil.
// A hit refreshes LRU state.
func (c *Cache) Lookup(addr uint64) *Line {
	addr = c.BlockAlign(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == addr {
			c.clock++
			set[i].lru = c.clock
			return &set[i]
		}
	}
	return nil
}

// Peek is Lookup without touching LRU state; for invariant checks.
func (c *Cache) Peek(addr uint64) *Line {
	addr = c.BlockAlign(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Victim returns the line that would be evicted to make room for addr:
// an invalid way if one exists, otherwise the LRU way. The returned line
// may still hold live state; the caller is responsible for writeback.
// The first call allocates the line array.
func (c *Cache) Victim(addr uint64) *Line {
	if c.lines == nil {
		c.lines = make([]Line, c.cfg.Sets()*c.cfg.Ways)
	}
	addr = c.BlockAlign(addr)
	set := c.set(addr)
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

// Insert fills a way with a new line for addr, evicting the victim. It
// returns the inserted line and, when ok, the valid line it displaced, by
// value, for writeback handling. Inserting an address already present
// updates the existing line in place instead of duplicating it.
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

// ForEach visits every valid line in (set, way) order; used by invariant
// checkers.
func (c *Cache) ForEach(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			fn(&c.lines[i])
		}
	}
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	c.ForEach(func(*Line) { n++ })
	return n
}
