package noc

import (
	"fmt"

	"inpg/internal/fault"
	"inpg/internal/sim"
)

// Config holds the network parameters (Table 1 defaults are set by
// DefaultConfig).
type Config struct {
	Mesh       Mesh
	VCsPerPort int // must be a multiple of NumVNets
	VCDepth    int // flits per VC buffer
	// PriorityArb enables OCOR priority-based VC/switch arbitration on all
	// routers.
	PriorityArb bool

	// Fault configures deterministic fault injection on links and router
	// ports. The zero value disables injection entirely: no injector is
	// built and the routers' fault paths are never entered, so a rate-0
	// run is bit-identical to a build without the fault layer.
	Fault fault.Config
}

// DefaultConfig returns the paper's Table 1 network configuration for an
// 8×8 mesh: 6 VCs per port, 4-flit VC buffers.
func DefaultConfig() Config {
	return Config{Mesh: Mesh{Width: 8, Height: 8}, VCsPerPort: 6, VCDepth: 4}
}

// Network is the full mesh: routers, links and network interfaces, driven
// by the simulation engine.
type Network struct {
	cfg     Config
	mesh    Mesh
	eng     *sim.Engine
	routers []Router
	nis     []NI
	pktID   uint64
	pool    packetPool
	pkts    pktTable

	// coords maps each node id to its mesh coordinate for Router.route.
	coords []coord

	// fault is nil unless cfg.Fault enables injection; routers gate every
	// fault-path branch on this single pointer.
	fault *fault.Injector

	// OnLinkRetry and OnLinkDead, when set, observe the link layer's
	// retransmission machinery: a faulted flit transmission scheduled for
	// retry (attempt counts from 1), and a link declared dead after its
	// bounded retries were exhausted. Both fire only on fault-injected
	// runs and follow the package's nil-check discipline — unset hooks
	// cost nothing. The packet must not be retained past the call.
	OnLinkRetry func(now sim.Cycle, at NodeID, toward Port, p *Packet, attempt int)
	OnLinkDead  func(now sim.Cycle, at NodeID, toward Port, p *Packet)
}

// New builds and wires a mesh network and registers it with the engine.
//
// New builds the router and NI arrays, their wiring and the NI injection
// slots, but no router buffers: a router's input VCs, output VCs, flit
// rings and, when faults are injected, link-retry state are built with
// the rest of its chunk's (see chunkRouters) the first time the router
// accepts a flit or its NI asks for local-VC space. A router no traffic
// reaches costs its struct alone. Each router holds fixed windows into
// its chunk's slabs, so the allocation count does not grow with the VCs
// per router, and the slabs hold no Go pointers: flits name their packet
// by handle, so the garbage collector never scans them.
func New(eng *sim.Engine, cfg Config) (*Network, error) {
	if cfg.VCsPerPort%int(NumVNets) != 0 || cfg.VCsPerPort <= 0 {
		return nil, fmt.Errorf("noc: VCsPerPort=%d must be a positive multiple of %d", cfg.VCsPerPort, NumVNets)
	}
	if int(NumPorts)*cfg.VCsPerPort > maxSlots {
		return nil, fmt.Errorf("noc: VCsPerPort=%d exceeds %d", cfg.VCsPerPort, maxSlots/int(NumPorts))
	}
	if cfg.VCDepth <= 0 || cfg.VCDepth > maxVCDepth {
		return nil, fmt.Errorf("noc: VCDepth=%d must be in [1, %d]", cfg.VCDepth, maxVCDepth)
	}
	if cfg.Mesh.Width <= 0 || cfg.Mesh.Height <= 0 {
		return nil, fmt.Errorf("noc: invalid mesh %dx%d", cfg.Mesh.Width, cfg.Mesh.Height)
	}
	n := &Network{cfg: cfg, mesh: cfg.Mesh, eng: eng, fault: fault.New(cfg.Fault)}
	nodes := cfg.Mesh.Nodes()
	nvc := cfg.VCsPerPort
	n.routers = make([]Router, nodes)
	n.nis = make([]NI, nodes)
	n.coords = make([]coord, nodes)
	// Handle 0 is reserved: it marks an idle injection slot. Room for one
	// packet in flight per node spares the table its first doublings.
	n.pkts = pktTable{live: make([]*Packet, 1, nodes+1), free: make([]uint32, 0, nodes)}
	active := make([]injection, nodes*nvc)
	for id := range n.routers {
		x, y := cfg.Mesh.Coord(NodeID(id))
		n.coords[id] = coord{int32(x), int32(y)}
		r := &n.routers[id]
		*r = Router{ID: NodeID(id), net: n, at: n.coords[id], depth: cfg.VCDepth}
		for p := North; p <= West; p++ {
			if cfg.Mesh.hasNeighbor(NodeID(id), p) {
				r.neighbors[p] = &n.routers[cfg.Mesh.neighbor(NodeID(id), p)]
			}
		}
		ni := &n.nis[id]
		*ni = NI{ID: NodeID(id), r: r, eng: eng, active: active[id*nvc : (id+1)*nvc : (id+1)*nvc]}
		r.ni = ni
	}
	// Routers and NIs participate in the engine's wake/sleep protocol:
	// each keeps its registration handle, wakes on new work (link
	// arrivals, injections) and sleeps when quiescent, so an idle mesh
	// costs no tick work at all.
	for i := range n.routers {
		n.routers[i].handle = eng.Register(&n.routers[i])
	}
	for i := range n.nis {
		n.nis[i].handle = eng.Register(&n.nis[i])
	}
	return n, nil
}

// chunkRouters is the number of consecutive routers whose buffers are
// built together, on the first use of any of them (Network.build). A
// Table 1 8×8 mesh is one chunk, and at its 6 VCs per port and depth 4 a
// chunk's flit slab is 64×30×4 16-byte flits, exactly 15 pages of 8 KB,
// so no size class rounds it up. Smaller chunks (one mesh row, say) cost
// more in size-class rounding and allocations than they save.
const chunkRouters = 64

// build carves the buffers of the chunk holding router id from fresh
// slabs: input VCs, output VCs with their initial credits, flit rings
// and, when faults are injected, link-retry state. Each router of the
// chunk gets its fixed windows into them.
func (n *Network) build(id NodeID) {
	nvc, depth := n.cfg.VCsPerPort, n.cfg.VCDepth
	slots := int(NumPorts) * nvc
	lo := int(id) / chunkRouters * chunkRouters
	routers := n.routers[lo:min(lo+chunkRouters, len(n.routers))]
	vcs := make([]inputVC, len(routers)*slots)
	outs := make([]outputVC, len(routers)*slots)
	flits := make([]flit, len(routers)*slots*depth)
	var retry []linkRetry
	if n.fault != nil {
		retry = make([]linkRetry, len(routers)*slots)
	}
	for i := range routers {
		r := &routers[i]
		a, b := i*slots, (i+1)*slots
		r.vcs, r.out = vcs[a:b:b], outs[a:b:b]
		r.flits = flits[a*depth : b*depth : b*depth]
		if retry != nil {
			r.retry = retry[a:b:b]
		}
		for s := range r.vcs {
			r.vcs[s].port = uint8(s / nvc)
			r.vcs[s].outVC = -1
		}
		for p := North; p <= West; p++ {
			if r.neighbors[p] != nil {
				for v := 0; v < nvc; v++ {
					r.outVC(p, v).cred = int32(depth)
				}
			}
		}
		// Local ejection is never back-pressured: the NI consumes flits
		// at link rate.
		for v := 0; v < nvc; v++ {
			r.outVC(Local, v).cred = 1 << 30
		}
	}
}

// Limits of the compact router state: slot ids are uint8, the occupancy
// mask has one bit per slot, and VC ring positions are uint16.
const (
	maxSlots   = 1 << 8
	maxVCDepth = 1<<16 - 1
)

// Mesh returns the topology.
func (n *Network) Mesh() Mesh { return n.mesh }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Router returns the router at node id.
func (n *Network) Router(id NodeID) *Router { return &n.routers[id] }

// NI returns the network interface at node id.
func (n *Network) NI(id NodeID) *NI { return &n.nis[id] }

// FaultInjector returns the network's fault injector, or nil when fault
// injection is disabled.
func (n *Network) FaultInjector() *fault.Injector { return n.fault }

// FaultStats returns the injector's decision counters (zero when fault
// injection is disabled).
func (n *Network) FaultStats() fault.Stats {
	if n.fault == nil {
		return fault.Stats{}
	}
	return n.fault.Stats
}

// packet returns the in-flight packet with handle h.
func (n *Network) packet(h uint32) *Packet { return n.pkts.live[h] }

// release frees the handle of a packet that died — delivered, or consumed
// by an interceptor — and recycles its shell.
func (n *Network) release(h uint32) {
	n.pool.put(n.pkts.live[h])
	n.pkts.remove(h)
}

// nextPacketID issues network-unique packet IDs.
func (n *Network) nextPacketID() uint64 {
	n.pktID++
	return n.pktID
}

// NewPacket returns a zeroed packet from the network's free list. Packets
// obtained here are recycled automatically once delivered to a sink or
// consumed by an interceptor, so senders on the steady-state protocol
// paths avoid a heap allocation per message. Callers may still inject
// packets they allocated themselves; those simply join the free list when
// they die.
func (n *Network) NewPacket() *Packet { return n.pool.get() }

// InFlight reports packets injected but not yet delivered or consumed by an
// interceptor, used by tests and the deadlock watchdog.
func (n *Network) InFlight() int {
	var injected, delivered, consumed uint64
	for i := range n.nis {
		injected += n.nis[i].Injected
		delivered += n.nis[i].Delivered
	}
	for i := range n.routers {
		consumed += n.routers[i].Stats.PacketsConsumed
	}
	return int(injected - delivered - consumed)
}

// MeanLatency returns the mean end-to-end packet latency in cycles across
// all NIs.
func (n *Network) MeanLatency() float64 {
	var l LatencySum
	for i := range n.nis {
		l.TotalCycles += n.nis[i].TotalCycles
		l.Count += n.nis[i].Count
	}
	return l.Mean()
}
