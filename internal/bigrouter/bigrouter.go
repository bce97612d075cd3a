// Package bigrouter implements iNPG, the paper's contribution: "big"
// routers that enhance a normal NoC router with a packet generator and a
// locking barrier table (Section 4, Figure 6).
//
// When the first GetX for a lock variable traverses a big router, a
// temporary lock barrier is created. Subsequent (arbitration-losing or
// later-arriving) GetX requests for the same lock are stopped: the big
// router immediately generates an early invalidation (Inv) to the issuing
// thread's L1, converts the stopped GetX into a FwdGetX bound for the home
// node, and — when the InvAck for its early Inv returns — forwards the ack
// to the home, which credits it to the winning thread's transaction. The
// invalidation–acknowledgement round trip thus happens near the competing
// thread instead of at the (possibly distant) home node, turning
// long-range centralized coherence traffic into short-range distributed
// traffic and shortening the lock coherence overhead (LCO).
//
// Each lock barrier carries a time-to-live (default 128 cycles) that
// counts down only while the barrier has no live early-invalidation (EI)
// entries and resets whenever one is created; an EI entry lives through
// four phases (Inv generated, GetX forwarded, InvAck received, ack
// forwarded) and is freed after the last. A full table passes traffic
// through like a normal router.
package bigrouter

import (
	"inpg/internal/coherence"
	"inpg/internal/noc"
	"inpg/internal/sim"
	"inpg/internal/trace"
)

// Config sizes the locking barrier table (Table 1 defaults: 16 barriers,
// 16 EI entries per barrier, TTL 128 cycles).
type Config struct {
	Barriers  int
	EIEntries int
	TTL       sim.Cycle
}

// DefaultConfig returns the paper's default big-router configuration.
func DefaultConfig() Config {
	return Config{Barriers: 16, EIEntries: 16, TTL: 128}
}

// EI-entry phases (Figure 6). Generation and forwarding happen in the same
// switch-traversal slot, so a live entry is either awaiting its InvAck or
// being freed; the phase field exists for observability.
const (
	PhaseInvGenerated = iota
	PhaseGetXForwarded
	PhaseInvAckReceived
	PhaseAckForwarded
)

// eiEntry tracks one stopped GetX / early invalidation.
type eiEntry struct {
	issuer    noc.NodeID
	phase     int
	invSentAt sim.Cycle
}

// barrier is one locking-barrier-table row.
type barrier struct {
	addr   uint64
	expiry sim.Cycle // valid while len(eis) == 0
	eis    map[noc.NodeID]eiEntry
}

// Stats counts packet-generator activity.
type Stats struct {
	BarriersCreated uint64
	BarriersExpired uint64
	GetXPassed      uint64 // lock GetX that created or bypassed a barrier
	GetXStopped     uint64 // converted to FwdGetX
	EarlyInvsSent   uint64
	AcksRelayed     uint64
	TableFullPasses uint64
	StrayAcks       uint64 // acks arriving with no matching EI entry
}

// Gen is the packet generator attached to one big router. It implements
// noc.Interceptor.
type Gen struct {
	Node  noc.NodeID
	eng   *sim.Engine
	homes coherence.HomeMap
	cfg   Config
	rtt   coherence.RTTRecorder
	// msgs supplies early Invs: the fabric's free list once attached, or
	// plain allocation when nil.
	msgs *coherence.MsgPool

	barriers map[uint64]*barrier // made when the first barrier opens
	// spare holds expired barrier rows for reuse; their EI maps are empty.
	spare    []*barrier
	tokenSeq uint64

	// Tracer, when set, records stop / early-invalidation / ack-relay
	// events.
	Tracer *trace.Buffer

	Stats Stats
}

// New builds a packet generator for the big router at node.
func New(eng *sim.Engine, node noc.NodeID, homes coherence.HomeMap, cfg Config) *Gen {
	return &Gen{
		Node:  node,
		eng:   eng,
		homes: homes,
		cfg:   cfg,
	}
}

// SetRTTRecorder installs the early-invalidation round-trip sampler.
func (g *Gen) SetRTTRecorder(r coherence.RTTRecorder) { g.rtt = r }

// Intercept implements noc.Interceptor: it examines every single-flit
// packet whose head flit enters this router. A pass leaves the packet and
// its message untouched.
func (g *Gen) Intercept(now sim.Cycle, r *noc.Router, p *noc.Packet) (bool, *noc.Packet) {
	m, ok := p.Payload.(*coherence.Message)
	if !ok {
		return false, nil
	}
	switch {
	case p.LockReq && m.Type == coherence.MsgGetX:
		return g.onLockGetX(now, r, p, m)
	case m.Type == coherence.MsgInvAck && m.EarlyInv && !m.ToDir && p.Dst == g.Node:
		// An InvAck answering one of our early Invs. Acks with ToDir set
		// are already relayed and belong to the destination's directory,
		// even when that directory shares a node with a big router.
		return g.onEarlyInvAck(now, r, m)
	}
	return false, nil
}

// onLockGetX applies the barrier logic to a traversing lock GetX.
func (g *Gen) onLockGetX(now sim.Cycle, r *noc.Router, p *noc.Packet, m *coherence.Message) (bool, *noc.Packet) {
	g.expire(now)
	b := g.barriers[m.Addr]
	if b == nil {
		if len(g.barriers) >= g.cfg.Barriers {
			// Locking barrier table full: behave like a normal router.
			g.Stats.TableFullPasses++
			return false, nil
		}
		if g.barriers == nil {
			g.barriers = make(map[uint64]*barrier)
		}
		g.barriers[m.Addr] = g.newBarrier(m.Addr, now+g.cfg.TTL)
		g.Stats.BarriersCreated++
		g.Stats.GetXPassed++
		return false, nil
	}
	if len(b.eis) >= g.cfg.EIEntries {
		g.Stats.TableFullPasses++
		return false, nil
	}
	if _, dup := b.eis[m.Requestor]; dup {
		// One outstanding request per L1 makes this unreachable; pass
		// defensively rather than corrupt the entry.
		g.Stats.GetXPassed++
		return false, nil
	}

	// Stop the request: early-invalidate the issuer, convert the GetX into
	// a FwdGetX toward the home, and remember the EI entry. The token ties
	// this stop's invalidation, acknowledgement and relay together.
	g.tokenSeq++
	token := uint64(g.Node)<<32 | g.tokenSeq
	b.eis[m.Requestor] = eiEntry{issuer: m.Requestor, phase: PhaseGetXForwarded, invSentAt: now}
	g.Stats.GetXStopped++
	g.Stats.EarlyInvsSent++

	m.Type = coherence.MsgFwdGetX
	m.EarlyInv = true
	m.ToDir = true
	m.Token = token
	p.LockReq = false // other big routers must not stop the forward
	if p.Journey != nil {
		p.JIntercepted = true // a sampled journey notes the in-network stop
	}
	if g.Tracer != nil {
		g.Tracer.Add(trace.Event{Cycle: now, Kind: trace.PktStop, Node: g.Node,
			Src: m.Requestor, Dst: p.Dst, Addr: m.Addr, Detail: "GetX->FwdGetX"})
		g.Tracer.Add(trace.Event{Cycle: now, Kind: trace.EarlyInv, Node: g.Node,
			Src: g.Node, Dst: m.Requestor, Addr: m.Addr, Detail: "generated Inv"})
	}

	inv := g.msgs.New(coherence.Message{
		Type:      coherence.MsgInv,
		Addr:      m.Addr,
		From:      g.Node,
		Requestor: m.Requestor,
		AckTo:     g.Node,
		EarlyInv:  true,
		Token:     token,
	})
	return false, genPacket(r, inv, m.Requestor)
}

// onEarlyInvAck consumes an InvAck returning to this big router and relays
// the same message to the home node of the lock.
func (g *Gen) onEarlyInvAck(now sim.Cycle, r *noc.Router, m *coherence.Message) (bool, *noc.Packet) {
	if b := g.barriers[m.Addr]; b != nil {
		if ei, ok := b.eis[m.AckFor]; ok {
			if g.rtt != nil {
				g.rtt.RecordRTT(m.AckFor, now-ei.invSentAt)
			}
			delete(b.eis, m.AckFor)
			if len(b.eis) == 0 {
				b.expiry = now + g.cfg.TTL
			}
		} else {
			g.Stats.StrayAcks++
		}
	} else {
		g.Stats.StrayAcks++
	}
	// Always relay: the home must never lose an acknowledgement.
	g.Stats.AcksRelayed++
	if g.Tracer != nil {
		g.Tracer.Add(trace.Event{Cycle: now, Kind: trace.AckRelay, Node: g.Node,
			Src: m.AckFor, Dst: g.homes.Home(m.Addr), Addr: m.Addr, Detail: "InvAck relayed"})
	}
	m.From = g.Node
	m.ToDir = true
	return true, genPacket(r, m, g.homes.Home(m.Addr))
}

// newBarrier returns a barrier row for addr, reusing an expired one.
func (g *Gen) newBarrier(addr uint64, expiry sim.Cycle) *barrier {
	if n := len(g.spare); n > 0 {
		b := g.spare[n-1]
		g.spare = g.spare[:n-1]
		b.addr, b.expiry = addr, expiry
		return b
	}
	return &barrier{addr: addr, expiry: expiry, eis: make(map[noc.NodeID]eiEntry)}
}

// expire deletes barriers whose TTL ran out with no live EI entries.
func (g *Gen) expire(now sim.Cycle) {
	for addr, b := range g.barriers {
		if len(b.eis) == 0 && b.expiry <= now {
			delete(g.barriers, addr)
			g.spare = append(g.spare, b)
			g.Stats.BarriersExpired++
		}
	}
}

// Barriers reports the live barrier count (tests, observability).
func (g *Gen) Barriers(now sim.Cycle) int {
	g.expire(now)
	return len(g.barriers)
}

// genPacket wraps a generated message in a packet recycled from r's
// network. Generated packets use the same priority as protocol responses
// so they are never starved under OCOR.
func genPacket(r *noc.Router, m *coherence.Message, dst noc.NodeID) *noc.Packet {
	var p *noc.Packet
	if r != nil {
		p = r.NewPacket()
	} else { // unit tests intercept without a live network
		p = new(noc.Packet)
	}
	p.Dst = dst
	p.VNet = m.Type.VNet()
	p.Size = noc.ControlFlits
	p.Priority = 100
	p.Addr = m.Addr
	p.Payload = m
	return p
}

// Deployment returns the node set for n big routers on mesh m, distributed
// evenly. n = half the nodes gives the paper's Figure 3 checkerboard (a
// big router between every two normal routers); other counts spread with
// a uniform stride.
func Deployment(m noc.Mesh, n int) []noc.NodeID {
	total := m.Nodes()
	if n >= total {
		all := make([]noc.NodeID, total)
		for i := range all {
			all[i] = noc.NodeID(i)
		}
		return all
	}
	if n <= 0 {
		return nil
	}
	if n*2 == total {
		var nodes []noc.NodeID
		for y := 0; y < m.Height; y++ {
			for x := 0; x < m.Width; x++ {
				if (x+y)%2 == 1 {
					nodes = append(nodes, m.ID(x, y))
				}
			}
		}
		return nodes
	}
	nodes := make([]noc.NodeID, 0, n)
	for i := 0; i < n; i++ {
		nodes = append(nodes, noc.NodeID(i*total/n+total/(2*n)))
	}
	return nodes
}

// Attach builds generators for the given nodes of fab in one slab,
// installs them as interceptors and returns them. Their early Invs come
// from the fabric's message free list.
func Attach(fab *coherence.Fabric, cfg Config, nodes []noc.NodeID) []*Gen {
	slab := make([]Gen, len(nodes))
	gens := make([]*Gen, len(nodes))
	for i, id := range nodes {
		slab[i] = Gen{Node: id, eng: fab.Eng, homes: fab.Homes, cfg: cfg, msgs: &fab.Msgs}
		gens[i] = &slab[i]
		fab.Net.Router(id).SetInterceptor(gens[i])
	}
	return gens
}
