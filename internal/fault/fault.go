// Package fault provides deterministic, seeded fault injection for the
// mesh NoC: per-flit link faults (drops and CRC-detected corruptions),
// transient per-cycle router port stalls, and configured permanent port
// stalls for wedge/recovery testing.
//
// Every decision is a pure function of (seed, event identity) computed by a
// keyed splitmix64-style hash — there is no sequential RNG stream — so the
// outcome of any individual decision does not depend on the order in which
// decisions are asked for. Runs with the same (Config.Seed, simulation
// seed) are therefore bit-identical regardless of engine scheduling mode or
// how many worker goroutines execute sibling simulations, and a simulation
// that replays the same cycles replays the same faults.
//
// The injector is owned by exactly one (single-threaded) simulation; only
// its Stats are mutated, and only from that simulation's engine.
package fault

import (
	"fmt"
	"math"

	"inpg/internal/sim"
)

// Kind classifies one link-fault decision.
type Kind int

// Link fault outcomes.
const (
	// None: the flit traverses the link intact.
	None Kind = iota
	// Dropped: the flit is lost on the link (no flit reaches the receiver;
	// the sender's link layer times out and retransmits).
	Dropped
	// Corrupted: the flit arrives but fails the receiver's CRC check and is
	// discarded (the link layer nacks and the sender retransmits). Effects
	// are identical to a drop; the two are distinguished for statistics.
	Corrupted
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Dropped:
		return "dropped"
	case Corrupted:
		return "corrupted"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// PortStall pins one router output port permanently faulty: from cycle From
// on, every flit sent through (Node, Port) fails its CRC, so the sender's
// bounded retransmission exhausts and the wormhole channel wedges — the
// deliberate-fault scenario the liveness watchdog must diagnose.
type PortStall struct {
	Node int
	Port int
	From uint64
}

// Config describes the fault model. The zero value injects nothing.
type Config struct {
	// Seed keys every fault decision. Independent of the simulation seed:
	// the same workload can be rerun under different fault patterns and
	// vice versa.
	Seed int64

	// DropRate and CorruptRate are per-flit-traversal probabilities of the
	// flit being lost on an inter-router link, respectively arriving
	// CRC-broken. Both trigger link-level retransmission.
	DropRate    float64
	CorruptRate float64

	// StallRate is the per-cycle probability that a router output port
	// transiently stalls (no switch grant crosses it); each stall event
	// holds the port for StallCycles cycles.
	StallRate float64
	// StallCycles is the duration of one transient stall; 0 selects 4.
	StallCycles int

	// MaxRetries bounds link-level retransmission attempts per flit; once
	// exhausted the link is declared failed and the channel wedges (the
	// watchdog reports it). 0 selects 8.
	MaxRetries int
	// RetryTimeout is the base nack/timeout delay before the first
	// retransmission; successive attempts back off exponentially
	// (timeout << attempt, capped at 64×). 0 selects 16 cycles.
	RetryTimeout int

	// PermanentStalls lists output ports that fail every transmission from
	// their From cycle on.
	PermanentStalls []PortStall
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.CorruptRate > 0 || c.StallRate > 0 || len(c.PermanentStalls) > 0
}

// AtRate returns a Config exercising all three transient fault classes at
// one combined intensity: flit drops and corruptions each at rate/2 per
// link traversal and transient port stalls at rate/4 per port-cycle. It is
// the mapping behind the CLIs' -faultrate flag.
func AtRate(rate float64, seed int64) Config {
	if rate <= 0 {
		return Config{Seed: seed}
	}
	return Config{
		Seed:        seed,
		DropRate:    rate / 2,
		CorruptRate: rate / 2,
		StallRate:   rate / 4,
	}
}

// Stats counts the injector's decisions over one simulation.
type Stats struct {
	FlitsDropped   uint64 // link-fault decisions of kind Dropped
	FlitsCorrupted uint64 // link-fault decisions of kind Corrupted
	PortStallHits  uint64 // switch grants blocked by a transient stall
	PermanentHits  uint64 // transmissions killed by a configured permanent stall
}

// Injector makes fault decisions for one simulation.
type Injector struct {
	cfg      Config
	seed     uint64
	dropT    uint64 // hash threshold for drops
	corruptT uint64 // threshold for drop+corrupt (cumulative)
	stallT   uint64

	Stats Stats
}

// New builds an injector; it returns nil for a disabled configuration so
// callers can gate the fault path on a single pointer test.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.StallCycles <= 0 {
		cfg.StallCycles = 4
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 16
	}
	in := &Injector{cfg: cfg, seed: mix(uint64(cfg.Seed) ^ 0x6a09e667f3bcc909)}
	in.dropT = threshold(cfg.DropRate)
	in.corruptT = threshold(cfg.DropRate + cfg.CorruptRate)
	in.stallT = threshold(cfg.StallRate)
	return in
}

// Config returns the normalized configuration.
func (in *Injector) Config() Config { return in.cfg }

// MaxRetries returns the retransmission bound.
func (in *Injector) MaxRetries() int { return in.cfg.MaxRetries }

// Backoff returns the retransmission delay after the attempt-th failed
// transmission (attempt ≥ 1): RetryTimeout << (attempt-1), capped at 64×.
func (in *Injector) Backoff(attempt int) sim.Cycle {
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	if shift < 0 {
		shift = 0
	}
	return sim.Cycle(in.cfg.RetryTimeout) << uint(shift)
}

// threshold converts a probability to a 64-bit hash threshold.
func threshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return math.MaxUint64
	}
	return uint64(rate * math.MaxUint64)
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll hashes an event identity into a uniform 64-bit value. Each decision
// category uses a distinct kind constant so drop, corrupt and stall streams
// are independent.
func (in *Injector) roll(kind, a, b, c uint64) uint64 {
	h := in.seed
	h = mix(h ^ kind)
	h = mix(h ^ a)
	h = mix(h ^ b)
	h = mix(h ^ c)
	return h
}

// fault-decision categories for roll.
const (
	rollLink  = 1
	rollStall = 2
)

// LinkFault decides the fate of one flit transmission attempt across the
// inter-router link leaving (node, port) at cycle now. pktID and flitIdx
// identify the flit so sibling flits on the same cycle fault independently;
// retransmission attempts of the same flit occur at later cycles and are
// re-rolled, which is what lets transient faults clear.
func (in *Injector) LinkFault(now sim.Cycle, node, port int, pktID uint64, flitIdx int) Kind {
	for _, s := range in.cfg.PermanentStalls {
		if s.Node == node && s.Port == port && sim.Cycle(s.From) <= now {
			in.Stats.PermanentHits++
			return Dropped
		}
	}
	if in.corruptT == 0 {
		return None
	}
	h := in.roll(rollLink, uint64(now), uint64(node)<<8|uint64(port), pktID<<8|uint64(flitIdx))
	switch {
	case h < in.dropT:
		in.Stats.FlitsDropped++
		return Dropped
	case h < in.corruptT:
		in.Stats.FlitsCorrupted++
		return Corrupted
	}
	return None
}

// PortStalled reports whether output port (node, port) is transiently
// stalled at cycle now: a stall event begins with probability StallRate on
// any cycle and holds the port for StallCycles cycles, so the check scans
// the preceding window for a stall onset. Stateless, hence order- and
// scheduling-independent.
func (in *Injector) PortStalled(now sim.Cycle, node, port int) bool {
	if in.stallT == 0 {
		return false
	}
	for i := 0; i < in.cfg.StallCycles && uint64(i) <= uint64(now); i++ {
		if in.roll(rollStall, uint64(now)-uint64(i), uint64(node)<<8|uint64(port), 0) < in.stallT {
			in.Stats.PortStallHits++
			return true
		}
	}
	return false
}
