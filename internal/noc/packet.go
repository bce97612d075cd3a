package noc

import (
	"fmt"

	"inpg/internal/journey"
	"inpg/internal/sim"
)

// VNet is a virtual network (message class). Separating request, forward
// and response traffic onto disjoint virtual-channel groups breaks
// protocol-level deadlock cycles in the coherence protocol.
type VNet int

// Virtual networks, matching the coherence protocol's message classes.
const (
	VNetRequest  VNet = iota // GetS/GetX/Upgrade/PutM from L1s
	VNetForward              // Inv/FwdGetS/FwdGetX from directories and big routers
	VNetResponse             // Data/InvAck/AckCount/Unblock/WBAck
	NumVNets
)

// Packet sizes in flits. A cache-block transfer is one 8-flit packet and a
// coherence control message is a single-flit packet (Table 1 of the paper;
// 128-bit data path, 128 B block).
const (
	ControlFlits = 1
	DataFlits    = 8
)

// Packet is the unit of transfer handed to and received from the network.
// The network treats Payload as opaque; interceptors (big routers) may
// inspect and rewrite it.
type Packet struct {
	ID  uint64
	Src NodeID
	Dst NodeID

	VNet VNet
	Size int // flits

	// Priority is the OCOR arbitration priority (higher wins). Zero for
	// plain traffic; routers ignore it unless priority arbitration is
	// enabled network-wide.
	Priority int

	// LockReq marks a request packet that carries an exclusive (GetX)
	// request issued by an atomic lock operation. Big routers key their
	// locking barrier table on (LockReq, Addr).
	LockReq bool
	// Addr is the memory address the payload concerns, exposed here so
	// interceptors need not understand the payload encoding.
	Addr uint64

	Payload any

	// InjectedAt is stamped by the NI when the packet enters its
	// injection queue; DeliveredAt when the tail flit is ejected.
	InjectedAt  sim.Cycle
	DeliveredAt sim.Cycle
	Hops        int

	// Journey, when non-nil, ties this packet to a sampled lock-journey
	// record (internal/journey). The J* counters below are written inline
	// by the NI and routers only when Journey is set. The record itself is
	// only touched from event context (delivery), never from a tick.
	Journey *journey.Record
	// JNIQueue is cycles the packet waited in the NI injection queue
	// before its head flit entered the mesh.
	JNIQueue uint64
	// JVCWait accumulates head-flit buffered-wait cycles across hops
	// (inclusive of retransmission backoff; JRetry carves that out).
	JVCWait uint64
	// JRetry accumulates link-retransmission backoff cycles.
	JRetry uint64
	// JIntercepted marks that a big router stopped and converted this
	// packet in-network.
	JIntercepted bool
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %d->%d vnet=%d size=%d addr=%#x", p.ID, p.Src, p.Dst, p.VNet, p.Size, p.Addr)
}

// flit is one 128-bit phit-width slice of a packet. Flits of a packet
// always travel contiguously within one virtual channel. A flit names its
// packet by handle into the network's in-flight table (pktTable), so the
// flit slab holds no Go pointers: 16 bytes a flit, never scanned by the
// garbage collector and written without write barriers. The tail is the
// flit with idx == Size-1 of its packet.
type flit struct {
	bufferedAt sim.Cycle // cycle the flit entered the current input VC
	pkt        uint32    // handle of the packet in the network's pktTable
	idx        uint32    // 0 = head
}

func (f flit) head() bool { return f.idx == 0 }

// pktTable is the network's in-flight packet table. NI.Inject assigns each
// packet a handle; the handle is freed where the packet dies — at delivery,
// or when an interceptor consumes it — and reissued to a later injection.
// Handle 0 is never issued, so it marks an idle NI injection slot.
type pktTable struct {
	live []*Packet // handle → in-flight packet; nil when free
	free []uint32
}

// add enters p into the table and returns its handle.
func (t *pktTable) add(p *Packet) uint32 {
	if n := len(t.free); n > 0 {
		h := t.free[n-1]
		t.free = t.free[:n-1]
		t.live[h] = p
		return h
	}
	t.live = append(t.live, p)
	return uint32(len(t.live) - 1)
}

// remove frees handle h for reuse.
func (t *pktTable) remove(h uint32) {
	t.live[h] = nil
	t.free = append(t.free, h)
}

// packetPool is a per-network free list of Packet shells. A network is
// owned by exactly one (single-threaded) simulation engine, so the pool
// needs no locking, and recycling is fully deterministic.
//
// Packets are zeroed when handed out, not when returned: released packets
// keep their fields until reuse, so a sink that merely reads a delivered
// packet after Receive returns (tests, tracing) still sees valid data.
// Sinks must not retain a packet past the cycle it was delivered in —
// the shell may be reissued for any later injection.
type packetPool struct {
	free []*Packet
}

// get returns a zeroed packet, recycling a released shell when available.
func (pp *packetPool) get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		*p = Packet{}
		return p
	}
	return new(Packet)
}

// put returns a dead packet shell to the free list. The payload reference
// is kept until reuse (see get); the pool is bounded by the maximum number
// of simultaneously in-flight packets.
func (pp *packetPool) put(p *Packet) {
	pp.free = append(pp.free, p)
}
