package cache

import "sort"

// MSHR is a miss status holding register file: it tracks outstanding
// transactions per block address and bounds their number, mirroring the
// 32-MSHR L1/L2 configuration in the paper's Table 1. T is the
// controller's pending operation, held by value in each entry.
//
// Entries live in a slab created on the first Allocate and grown, never
// past capacity, as concurrency demands; live entries stay packed at the
// front, so Get scans only the outstanding ones. A controller that never
// misses costs no slab at all. Free moves the last live entry into the
// freed slot, so a pointer from Allocate or Get is valid only until the
// next Free: copy out what outlives it (Seq, Op) before freeing.
type MSHR[T any] struct {
	capacity int
	slots    []MSHREntry[T] // live entries: slots[:len(slots)]
	peak     int
	allocs   uint64
	rejects  uint64
}

// MSHREntry is the controller-visible record of one outstanding
// transaction. The coherence controllers stash their transient state here.
type MSHREntry[T any] struct {
	Addr uint64
	// Transient protocol state, owned by the controller.
	State       int
	DataReady   bool
	AcksDone    bool
	PendingData uint64
	// Invalidated records an invalidation that raced with the fill: the
	// response completes the operation but must not install the line.
	Invalidated bool
	// Seq is the transaction sequence number stamped by the controller;
	// responses echoing a different Seq are stale and must not complete
	// this entry.
	Seq uint64
	// Op is the controller's pending operation.
	Op T
}

// MakeMSHR returns an MSHR file with the given entry capacity, by value
// for the controller to embed.
func MakeMSHR[T any](capacity int) MSHR[T] { return MSHR[T]{capacity: capacity} }

// Allocate creates a zeroed entry for addr. It returns nil when the file
// is full or the address already has an entry (one outstanding
// transaction per block).
func (m *MSHR[T]) Allocate(addr uint64) *MSHREntry[T] {
	n := len(m.slots)
	if n >= m.capacity || m.Get(addr) != nil {
		m.rejects++
		return nil
	}
	if n == cap(m.slots) {
		grown := make([]MSHREntry[T], n, min(max(2*n, 1), m.capacity))
		copy(grown, m.slots)
		m.slots = grown
	}
	m.slots = m.slots[:n+1]
	e := &m.slots[n]
	*e = MSHREntry[T]{Addr: addr}
	m.allocs++
	if n+1 > m.peak {
		m.peak = n + 1
	}
	return e
}

// Get returns the entry for addr, or nil.
func (m *MSHR[T]) Get(addr uint64) *MSHREntry[T] {
	for i := range m.slots {
		if m.slots[i].Addr == addr {
			return &m.slots[i]
		}
	}
	return nil
}

// Free releases addr's entry; its slot is reused at once.
func (m *MSHR[T]) Free(addr uint64) {
	e := m.Get(addr)
	if e == nil {
		return
	}
	last := len(m.slots) - 1
	*e = m.slots[last]
	m.slots[last] = MSHREntry[T]{} // drop the op's references
	m.slots = m.slots[:last]
}

// Entries returns every outstanding entry in ascending address order, for
// deterministic diagnostic snapshots.
func (m *MSHR[T]) Entries() []*MSHREntry[T] {
	out := make([]*MSHREntry[T], len(m.slots))
	for i := range m.slots {
		out[i] = &m.slots[i]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Len reports outstanding entries.
func (m *MSHR[T]) Len() int { return len(m.slots) }

// Full reports whether a new allocation would fail for capacity reasons.
func (m *MSHR[T]) Full() bool { return len(m.slots) >= m.capacity }

// Peak reports the high-water mark of concurrently outstanding entries.
func (m *MSHR[T]) Peak() int { return m.peak }

// Allocs reports successful allocations over the file's lifetime.
func (m *MSHR[T]) Allocs() uint64 { return m.allocs }

// Rejects reports allocations denied for capacity or duplicate address.
func (m *MSHR[T]) Rejects() uint64 { return m.rejects }
