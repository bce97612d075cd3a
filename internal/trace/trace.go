// Package trace records message-level protocol activity into a bounded
// ring buffer, cheap enough to leave compiled in: every hook is a nil
// check when tracing is off. It exists because understanding a lock
// handoff — who swapped, where the request was stopped, which router
// generated the early invalidation, when the home collected which ack —
// requires seeing the actual message interleaving, not aggregate counters.
//
// inpgsim -trace renders a competition's trace as a timeline; tests use the
// buffer to assert protocol-level orderings that counters cannot express.
package trace

import (
	"fmt"
	"strings"

	"inpg/internal/noc"
	"inpg/internal/sim"
)

// Kind classifies a traced event.
type Kind int

// Event kinds.
const (
	// PktInject: a packet entered an NI injection queue.
	PktInject Kind = iota
	// PktDeliver: a packet was delivered to a node's sink.
	PktDeliver
	// PktStop: a big router stopped a lock request (converted to FwdGetX).
	PktStop
	// EarlyInv: a big router generated an early invalidation.
	EarlyInv
	// AckRelay: a big router relayed an InvAck to the home.
	AckRelay
	// LockAcquire / LockRelease: thread-level lock transitions.
	LockAcquire
	LockRelease
	// LinkRetry: a flit transmission faulted on a link and was scheduled
	// for retransmission (fault injection, PR 3's link layer).
	LinkRetry
	// LinkDead: a link exhausted its bounded retries and was declared
	// dead; the wormhole channel through it is wedged for good.
	LinkDead
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case PktInject:
		return "inject"
	case PktDeliver:
		return "deliver"
	case PktStop:
		return "stop"
	case EarlyInv:
		return "early-inv"
	case AckRelay:
		return "ack-relay"
	case LockAcquire:
		return "acquire"
	case LockRelease:
		return "release"
	case LinkRetry:
		return "link-retry"
	case LinkDead:
		return "link-dead"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one traced occurrence.
type Event struct {
	Cycle  sim.Cycle
	Kind   Kind
	Node   noc.NodeID // where it happened
	Src    noc.NodeID // message source (packets)
	Dst    noc.NodeID // message destination (packets)
	Addr   uint64
	Detail string // message type or free-form note
}

func (e Event) String() string {
	return fmt.Sprintf("%8d  %-9s @%-3d %3d->%-3d addr=%#06x  %s",
		e.Cycle, e.Kind, e.Node, e.Src, e.Dst, e.Addr, e.Detail)
}

// Buffer is a bounded ring of events. The zero value is unusable; use New.
type Buffer struct {
	ring  []Event
	next  int
	count int
	// Total events offered, including those that overwrote older ones.
	Total uint64
	// AddrFilter, when nonzero, records only events for that address
	// (block-aligned comparison is the caller's concern).
	AddrFilter uint64
}

// New builds a buffer holding the last capacity events.
func New(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &Buffer{ring: make([]Event, capacity)}
}

// Add records an event, evicting the oldest when full.
func (b *Buffer) Add(e Event) {
	if b.AddrFilter != 0 && e.Addr != b.AddrFilter {
		return
	}
	b.Total++
	b.ring[b.next] = e
	b.next = (b.next + 1) % len(b.ring)
	if b.count < len(b.ring) {
		b.count++
	}
}

// Len reports buffered events.
func (b *Buffer) Len() int { return b.count }

// Events returns the buffered events oldest-first.
func (b *Buffer) Events() []Event {
	out := make([]Event, 0, b.count)
	start := b.next - b.count
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < b.count; i++ {
		out = append(out, b.ring[(start+i)%len(b.ring)])
	}
	return out
}

// Filter returns buffered events matching pred, oldest-first.
func (b *Buffer) Filter(pred func(Event) bool) []Event {
	var out []Event
	for _, e := range b.Events() {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// Window returns events with lo <= Cycle < hi.
func (b *Buffer) Window(lo, hi sim.Cycle) []Event {
	return b.Filter(func(e Event) bool { return e.Cycle >= lo && e.Cycle < hi })
}

// Render prints events one per line.
func Render(events []Event) string {
	var sb strings.Builder
	for _, e := range events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CountByKind tallies events per kind.
func CountByKind(events []Event) map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}
