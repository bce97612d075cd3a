// Package lock implements the five locking primitives the paper evaluates
// (Section 2.1): the test-and-set lock TAS (as test-and-test-and-set per
// Algorithm 1), the ticket lock TTL, the array-based queuing lock ABQL,
// the Mellor-Crummey & Scott MCS lock, and the Linux-4.2-style queue
// spin-lock QSL with a bounded spin phase followed by a sleep queue.
//
// Every primitive is executed mechanistically as loads, stores and atomic
// read-modify-writes against the coherent memory system, so the lock
// coherence traffic the paper studies (GetX storms, invalidation fan-out,
// ack collection) emerges from the protocol rather than being modeled.
package lock

import (
	"fmt"

	"inpg/internal/coherence"
	"inpg/internal/cpu"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

// Kind selects a primitive.
type Kind int

// The five locking primitives of the paper.
const (
	TAS Kind = iota
	TTL
	ABQL
	MCS
	QSL
	// CLH is an extension beyond the paper's five primitives: the
	// Craig/Landin-Hagersten predecessor-spinning queue lock.
	CLH
)

// Kinds lists all primitives in the paper's presentation order. CLH is an
// extension and is excluded; use KindsWithExtensions for the full set.
var Kinds = []Kind{TAS, TTL, ABQL, MCS, QSL}

// KindsWithExtensions includes the primitives added beyond the paper.
var KindsWithExtensions = []Kind{TAS, TTL, ABQL, MCS, QSL, CLH}

// String returns the paper's abbreviation.
func (k Kind) String() string {
	switch k {
	case TAS:
		return "TAS"
	case TTL:
		return "TTL"
	case ABQL:
		return "ABQL"
	case MCS:
		return "MCS"
	case QSL:
		return "QSL"
	case CLH:
		return "CLH"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a primitive name.
func ParseKind(s string) (Kind, error) {
	for _, k := range KindsWithExtensions {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("lock: unknown primitive %q", s)
}

// Config holds primitive-independent tuning.
type Config struct {
	// Threads is the number of competing threads (sizes per-thread
	// structures in ABQL and MCS).
	Threads int
	// SpinInterval is the delay between failed polls.
	SpinInterval sim.Cycle
	// QSLRetries is the spin budget before QSL sleeps (Linux 4.2: 128).
	QSLRetries int
	// CtxSwitch is the context-switch overhead paid on each side of a QSL
	// sleep.
	CtxSwitch sim.Cycle
	// Wakeup is the latency from a release to the sleeper resuming.
	Wakeup sim.Cycle
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig(threads int) Config {
	return Config{
		Threads:      threads,
		SpinInterval: 12,
		QSLRetries:   128,
		// OS context-switch and wakeup costs at 2 GHz: sleeping a thread
		// and waking it back up burn microseconds, which is exactly the
		// overhead OCOR tries to avoid.
		CtxSwitch: 2500,
		Wakeup:    1000,
	}
}

// Preloader initializes memory words before first coherent access
// (implemented by memory.System).
type Preloader interface {
	Preload(addr, val uint64)
}

// AddrAlloc hands out distinct cache-block addresses with controlled home
// placement, so experiments can pin a lock's home node (Figure 10 places
// it at core (5,6)) while spreading secondary structures.
type AddrAlloc struct {
	Homes coherence.HomeMap
	Pre   Preloader
	next  map[noc.NodeID]int
	rr    int
}

// NewAddrAlloc builds an allocator over the fabric's home map.
func NewAddrAlloc(homes coherence.HomeMap, pre Preloader) *AddrAlloc {
	return &AddrAlloc{Homes: homes, Pre: pre, next: make(map[noc.NodeID]int)}
}

// BlockAt allocates the next unused block homed at node.
func (a *AddrAlloc) BlockAt(node noc.NodeID) uint64 {
	n := a.next[node]
	a.next[node] = n + 1
	return a.Homes.AddrForHome(node, n)
}

// Block allocates a block, spreading homes round-robin across the chip.
func (a *AddrAlloc) Block() uint64 {
	node := noc.NodeID(a.rr % a.Homes.Nodes)
	a.rr++
	return a.BlockAt(node)
}

// New builds a lock of the given kind whose primary variable is homed at
// home. Secondary per-thread structures spread across the chip. An unknown
// kind is a configuration error, reported rather than panicked so library
// callers (CLIs, experiment sweeps) can surface it.
func New(kind Kind, alloc *AddrAlloc, home noc.NodeID, cfg Config) (cpu.Lock, error) {
	switch kind {
	case TAS:
		return newTAS(alloc, home, cfg), nil
	case TTL:
		return newTicket(alloc, home, cfg), nil
	case ABQL:
		return newABQL(alloc, home, cfg), nil
	case MCS:
		return newMCS(alloc, home, cfg), nil
	case QSL:
		return newQSL(alloc, home, cfg), nil
	case CLH:
		return newCLH(alloc, home, cfg), nil
	}
	return nil, fmt.Errorf("lock: bad kind %d", kind)
}

// releasePrio is the OCOR priority of release-path requests: above every
// spin level so the holder's progress (and thus everyone's) is never
// starved by competing SWAP storms.
func releasePrio(t *cpu.Thread) int {
	if t.OCOR {
		return 9
	}
	return 0
}

// spinAgain schedules the next poll after the fixed spin interval: the
// paper's waiting cores "continually spin" on the lock, so at any instant
// nearly every competitor has a lock request in flight — the traffic
// iNPG's barriers stop and invalidate early.
func spinAgain(t *cpu.Thread, cfg Config, poll func()) {
	t.CountRetry()
	t.Eng().Schedule(cfg.SpinInterval, poll)
}

// Each primitive keeps one record per competing thread whose
// continuations — the callbacks its memory operations and polls resume
// through — are bound once, on the thread's first acquire, and reused by
// every later one: a poll then allocates nothing. A record stores the
// done callback of the acquire (or release) in progress; a thread has at
// most one of each in progress.

// waiter returns thread t's record in *s, made by bind on the thread's
// first call. *s is sized for n threads on first use, so a lock nobody
// acquires allocates nothing.
func waiter[T any](s *[]*T, t *cpu.Thread, n int, bind func(*cpu.Thread) *T) *T {
	if t.ID >= len(*s) {
		grown := make([]*T, max(n, t.ID+1))
		copy(grown, *s)
		*s = grown
	}
	w := &(*s)[t.ID]
	if *w == nil {
		*w = bind(t)
	}
	return *w
}
