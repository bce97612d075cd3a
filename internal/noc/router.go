package noc

import (
	"math/bits"

	"inpg/internal/fault"
	"inpg/internal/sim"
)

// Interceptor is the hook through which big routers (package bigrouter)
// participate in packet switching. Intercept is invoked exactly once per
// router visit, at the moment the head flit of a single-flit packet enters
// an input virtual channel (multi-flit data packets are never lock-protocol
// control messages and pass through uninspected).
//
// The interceptor may mutate the packet in place (e.g. convert a stopped
// GetX into a FwdGetX bound for the home node), consume it entirely, and/or
// hand the router one newly generated packet (nil for none), which it
// injects through the local network interface (the paper's "separate VC"
// for generated packets).
//
// A consumed packet's shell is recycled by the network: the interceptor
// must not retain it past the Intercept call and must not return it as
// the generated packet (its payload may be read, and reused in a fresh
// packet, before returning).
type Interceptor interface {
	Intercept(now sim.Cycle, r *Router, p *Packet) (consume bool, generated *Packet)
}

// inputVC is one virtual-channel FIFO on a router input port. The route
// state (outPort, outVC) always describes the packet at the front of the
// buffer. inputVCs live in the network-wide VC slab at their router's slot
// (port*VCsPerPort + vc); port records which input port the slot belongs
// to. The buffer is a ring of n flits starting at head within the slot's
// fixed VCDepth window of the flit slab (see Router.flits). The struct
// holds no pointers and fits in 16 bytes.
type inputVC struct {
	headSince sim.Cycle

	head, n uint16 // ring position of the front flit, and buffered flits

	port    uint8 // input Port of this slot
	outPort uint8 // allocated output Port, valid when routed
	outVC   int8  // allocated output VC, -1 = none yet
	routed  bool
}

func (vc *inputVC) reset() {
	vc.routed = false
	vc.outVC = -1
}

// linkRetry is the link-level retransmission state of an input VC's front
// flit. Only fault-injected networks have it: New allocates one per input
// VC slot when it builds an injector. A faulted transmission leaves the
// flit at the front — retrying before dequeue is what preserves wormhole
// flit order — and schedules the retry at nextTry with exponential
// backoff. Once retries exceeds the injector's bound the VC is declared
// dead: the link has failed, the wormhole channel wedges, and the liveness
// watchdog reports it.
type linkRetry struct {
	nextTry sim.Cycle
	retries uint32
	dead    bool
}

// outputVC is one virtual channel of an output port, seen from the router
// that sends into it: whether an input VC holds it, and how many flits the
// downstream buffer can still take. A credit returned at cycle c is parked
// in pend (pendAt = c) and folded into cred by the first read at a later
// cycle, so it is usable from exactly c+1 whichever of the two routers
// ticks first — without a message queue, and without waking the sender.
// Only the input VC that set busy clears it (at its tail flit), so the
// flag needs no owner pointer.
type outputVC struct {
	pendAt sim.Cycle
	cred   int32
	pend   uint16
	busy   bool
}

// credits returns the credits usable at cycle now.
func (o *outputVC) credits(now sim.Cycle) int {
	if o.pend > 0 && o.pendAt < now {
		o.cred += int32(o.pend)
		o.pend = 0
	}
	return int(o.cred)
}

// returnCredit hands back one credit at cycle now, usable from now+1.
func (o *outputVC) returnCredit(now sim.Cycle) {
	o.credits(now)
	o.pend++
	o.pendAt = now
}

// arrival is a flit in flight on a link toward this router, bound for
// input VC slot: the flit without its buffered cycle, which acceptFlit
// stamps. Its arrival cycle is implied by the bank that holds it (see
// Router.inbox).
type arrival struct {
	pkt  uint32
	idx  uint32
	slot uint8
}

// RouterStats aggregates per-router activity counters.
type RouterStats struct {
	FlitsSwitched   uint64
	PacketsConsumed uint64 // removed by the interceptor
	PacketsSeen     uint64 // head flits accepted at input VCs
	LinkRetries     uint64 // flit transmissions that faulted and were retried
	LinkFailures    uint64 // input VCs declared dead after retries exhausted
	VCStalls        uint64 // switch requests denied for lack of downstream credit
}

// Router is one mesh router: NumPorts input ports × VCsPerPort virtual
// channels, credit-based flow control, XY routing and a 2-stage pipeline
// modeled as a minimum 2-cycle per-hop latency.
type Router struct {
	ID  NodeID
	net *Network

	neighbors [NumPorts]*Router
	// vcs and out are this router's windows into its chunk's input- and
	// output-VC slabs, both indexed by slot = port*VCsPerPort + vc. flits
	// is its window into the chunk's flit slab: slot s buffers its ring in
	// flits[s*depth : (s+1)*depth]. All are nil until the chunk is built
	// (Network.build); an unbuilt router holds no flits.
	vcs   []inputVC
	out   []outputVC
	flits []flit
	depth int
	// retry is the window into the chunk's retransmission-state slab,
	// indexed by slot like vcs; nil unless the network injects faults.
	retry []linkRetry

	// at is the router's mesh coordinate, cached so XY routing compares
	// coordinates instead of dividing node ids.
	at coord

	// inbox holds the flits in flight on the links toward this router, in
	// two banks indexed by arrival-cycle parity, with inboxN[b] entries in
	// bank b. A link has one cycle of latency and carries at most one flit
	// a cycle, so a cycle's arrivals number at most one per link, and only
	// two cycles' arrivals — this one's and the next's — can be pending
	// while the router ticks. Each bank fills in send order, which is
	// ascending upstream-router order.
	inbox  [2][NumPorts - 1]arrival
	inboxN [2]uint8

	interceptor Interceptor
	ni          *NI

	saRR  int // round-robin pointer over (port,vc) pairs
	Stats RouterStats

	buffered int // flits currently buffered; 0 lets Tick exit early

	// occ marks the occupied input VCs, slot s as bit s%64 of word s/64,
	// so the allocation stages visit only live VCs instead of scanning all
	// NumPorts×VCsPerPort slots, and a single set bit lets Tick skip
	// arbitration. Visiting set bits in ascending order preserves the
	// exact visit order of the full scan. Only the words covering len(vcs)
	// slots are in use.
	occ [maxSlots / 64]uint64

	// handle is the router's wake/sleep handle. A router sleeps when it
	// holds no flits and no flit is in flight toward it, and is woken only
	// by link arrivals and NI flit pushes. Returning credits never wake it:
	// a router without flits has nothing to spend them on, and they are
	// counters its next read folds in (see outputVC).
	handle sim.Handle
}

// wake puts the router back into the engine's tick set.
func (r *Router) wake() { r.net.eng.Wake(r.handle) }

// outVC returns output virtual channel v of port p.
func (r *Router) outVC(p Port, v int) *outputVC {
	return &r.out[int(p)*r.net.cfg.VCsPerPort+v]
}

// front returns the flit at the front of input VC slot s, which must hold
// at least one flit.
func (r *Router) front(s int) *flit {
	return &r.flits[s*r.depth+int(r.vcs[s].head)]
}

// route returns the XY output port at this router toward dst. It makes the
// decision of Mesh.RouteXY(r.ID, dst) from the cached coordinate and the
// network's coordinate table, without dividing.
func (r *Router) route(dst NodeID) Port {
	d := r.net.coords[dst]
	switch {
	case d.x > r.at.x:
		return East
	case d.x < r.at.x:
		return West
	case d.y > r.at.y:
		return South
	case d.y < r.at.y:
		return North
	default:
		return Local
	}
}

// SetInterceptor installs (or removes, with nil) the packet-generation hook
// that turns this normal router into a big router.
func (r *Router) SetInterceptor(i Interceptor) { r.interceptor = i }

// NI returns the network interface attached to this router's local port.
func (r *Router) NI() *NI { return r.ni }

// NewPacket returns a zeroed packet from the network's free list;
// interceptors use it to build generated packets allocation-free.
func (r *Router) NewPacket() *Packet { return r.net.pool.get() }

// vcClass returns the half-open VC index range reserved for a vnet.
func (r *Router) vcClass(v VNet) (lo, hi int) {
	per := r.net.cfg.VCsPerPort / int(NumVNets)
	return int(v) * per, (int(v) + 1) * per
}

// acceptFlit places an arriving flit into input VC slot, first giving the
// interceptor a chance to consume or rewrite the packet, and building the
// router's chunk of buffers if this is its first flit. It reports whether
// the flit was consumed (not buffered). It does not wake the router: link
// arrivals are accepted by the router's own tick, and the NI wakes it
// after a push.
func (r *Router) acceptFlit(now sim.Cycle, slot int, f flit) bool {
	if r.vcs == nil {
		r.net.build(r.ID)
	}
	if f.head() {
		r.Stats.PacketsSeen++
		if r.interceptor != nil {
			if p := r.net.packet(f.pkt); p.Size == 1 {
				consume, generated := r.interceptor.Intercept(now, r, p)
				if generated != nil {
					r.ni.Inject(generated)
				}
				if consume {
					r.Stats.PacketsConsumed++
					r.net.release(f.pkt)
					return true
				}
			}
		}
	}
	f.bufferedAt = now
	vc := &r.vcs[slot]
	i := int(vc.head) + int(vc.n)
	if i >= r.depth {
		i -= r.depth
	}
	r.flits[slot*r.depth+i] = f
	vc.n++
	if vc.n == 1 {
		r.occ[slot/64] |= 1 << (slot % 64)
	}
	r.buffered++
	return false
}

// Tick advances the router one cycle: drain link arrivals, compute routes
// and allocate output VCs for new heads, then run switch allocation and
// traversal for at most one flit per input port and one per output port.
func (r *Router) Tick(now sim.Cycle) {
	// Link arrivals due this cycle: the bank of this cycle's parity.
	if b := now % 2; r.inboxN[b] > 0 {
		for _, a := range r.inbox[b][:r.inboxN[b]] {
			if r.acceptFlit(now, int(a.slot), flit{pkt: a.pkt, idx: a.idx}) {
				// Consumed by the interceptor: the buffer slot is free
				// again, so return the credit upstream immediately.
				r.returnCredit(now, int(a.slot))
			}
		}
		r.inboxN[b] = 0
	}

	if r.buffered == 0 {
		// Quiescent: no flits buffered. Drop out of the tick set unless a
		// flit is still in flight toward us; arrivals and NI pushes wake us.
		if r.inboxN == [2]uint8{} {
			r.net.eng.Sleep(r.handle)
		}
		return
	}

	// A sole occupied VC has no one to conflict with: it wins the switch
	// whenever it requests it, so the arbitration stages reduce to its own
	// allocation, request checks and traversal.
	nw := (len(r.vcs) + 63) / 64
	if s := r.soleSlot(nw); s >= 0 {
		r.allocate(now, s)
		if r.requests(now, s) {
			r.traverse(now, s)
		}
	} else {
		r.arbitrate(now, nw)
	}
	if r.saRR++; r.saRR == len(r.vcs) {
		r.saRR = 0
	}

	if r.buffered == 0 && r.inboxN == [2]uint8{} {
		r.net.eng.Sleep(r.handle)
	}
}

// soleSlot returns the only occupied input VC slot among the first nw
// occupancy words, or -1 when more than one is occupied.
func (r *Router) soleSlot(nw int) int {
	s := -1
	for w := 0; w < nw; w++ {
		if m := r.occ[w]; m != 0 {
			if s >= 0 || m&(m-1) != 0 {
				return -1
			}
			s = w*64 + bits.TrailingZeros64(m)
		}
	}
	return s
}

// allocate is stage 1 for occupied slot s: route computation and output VC
// allocation for the head flit at its front, unless its packet already
// holds an output VC.
func (r *Router) allocate(now sim.Cycle, s int) {
	vc := &r.vcs[s]
	if vc.routed && vc.outVC >= 0 {
		return // the front packet already holds an output VC
	}
	f := r.front(s)
	if !f.head() {
		return
	}
	pkt := r.net.packet(f.pkt)
	if !vc.routed {
		vc.outPort = uint8(r.route(pkt.Dst))
		vc.routed = true
		vc.headSince = now
	}
	if vc.outVC < 0 {
		lo, hi := r.vcClass(pkt.VNet)
		for ov := lo; ov < hi; ov++ {
			if o := r.outVC(Port(vc.outPort), ov); !o.busy {
				o.busy = true
				vc.outVC = int8(ov)
				break
			}
		}
	}
}

// requests reports whether occupied slot s bids for the switch this cycle,
// running stage 2's per-candidate checks. A denied credit counts a VC
// stall. Tick's sole-requester path and arbitrate both call it, so they
// check and count alike.
func (r *Router) requests(now sim.Cycle, s int) bool {
	vc := &r.vcs[s]
	if !vc.routed || vc.outVC < 0 {
		return false
	}
	if r.net.fault != nil {
		if lr := &r.retry[s]; lr.dead || lr.nextTry > now {
			return false // failed link, or retransmission backoff still running
		}
	}
	if r.front(s).bufferedAt >= now {
		return false // models the 2-stage pipeline: never same-cycle switch
	}
	op := Port(vc.outPort)
	if r.net.fault != nil && op != Local && r.net.fault.PortStalled(now, int(r.ID), int(op)) {
		return false // output port transiently stalled: no grant crosses it
	}
	if r.outVC(op, int(vc.outVC)).credits(now) <= 0 {
		r.Stats.VCStalls++
		return false
	}
	return true
}

// arbitrate runs stage 1 over the occupied slots in ascending (port, vc)
// order, then stage 2: switch allocation and traversal of one flit per
// input port and one per output port (a single crossbar connection each).
// The round-robin scan takes the occupied slots at or after saRR in a
// first lap over the mask words and the ones before it in a second,
// visiting the same candidates in the same order as the full slot scan
// that starts at saRR and wraps.
func (r *Router) arbitrate(now sim.Cycle, nw int) {
	for w := 0; w < nw; w++ {
		for m := r.occ[w]; m != 0; m &= m - 1 {
			r.allocate(now, w*64+bits.TrailingZeros64(m))
		}
	}

	// grantedIn and grantedOut are port bitmasks; winners holds the slot
	// granted each output port.
	var grantedIn, grantedOut uint8
	var winners [NumPorts]int
	for k := 0; k < 2*nw; k++ {
		w := k
		if w >= nw {
			w -= nw
		}
		m := r.occ[w]
		atOrAfter := m
		if d := r.saRR - w*64; d >= 64 {
			atOrAfter = 0
		} else if d > 0 {
			atOrAfter &^= 1<<d - 1
		}
		if k < nw {
			m = atOrAfter
		} else {
			m &^= atOrAfter
		}
		for ; m != 0; m &= m - 1 {
			slot := w*64 + bits.TrailingZeros64(m)
			p := r.vcs[slot].port
			if grantedIn&(1<<p) != 0 || !r.requests(now, slot) {
				continue
			}
			op := r.vcs[slot].outPort
			if grantedOut&(1<<op) != 0 {
				// An earlier round-robin candidate holds this output; under
				// priority arbitration a strictly better packet may steal it.
				if !r.net.cfg.PriorityArb || !r.betterPriority(now, slot, winners[op]) {
					continue
				}
				grantedIn &^= 1 << r.vcs[winners[op]].port
			}
			grantedOut |= 1 << op
			grantedIn |= 1 << p
			winners[op] = slot
		}
	}
	for op := Port(0); op < NumPorts; op++ {
		if grantedOut&(1<<op) != 0 {
			r.traverse(now, winners[op])
		}
	}
}

// agingQuantum is the head-of-line wait that buys one effective priority
// level — the starvation-avoidance the paper attributes to the progress
// information OCOR embeds in request packets: a long-stalled low-priority
// packet eventually outranks fresh high-priority traffic.
const agingQuantum = 64

// betterPriority reports whether the front packet of input VC slot a
// should beat slot b's under OCOR arbitration: higher aged priority first,
// then older head.
func (r *Router) betterPriority(now sim.Cycle, a, b int) bool {
	pa := r.effectivePriority(now, a)
	pb := r.effectivePriority(now, b)
	if pa != pb {
		return pa > pb
	}
	return r.vcs[a].headSince < r.vcs[b].headSince
}

// effectivePriority is the priority of slot s's front packet plus its
// head-of-line age in aging quanta.
func (r *Router) effectivePriority(now sim.Cycle, s int) int {
	return r.net.packet(r.front(s).pkt).Priority + int(now-r.vcs[s].headSince)/agingQuantum
}

// traverse moves the front flit of input VC slot through the crossbar onto
// its output link (or into the local NI).
func (r *Router) traverse(now sim.Cycle, slot int) {
	vc := &r.vcs[slot]
	f := *r.front(slot)
	op := Port(vc.outPort)
	pkt := r.net.packet(f.pkt)
	if r.net.fault != nil && op != Local {
		// The link layer: transmit, CRC-check at the receiver, ack/nack. A
		// faulted flit (lost, or nacked on CRC failure) stays at the head of
		// its input VC — retry-before-dequeue keeps wormhole flit order —
		// and is retransmitted after an exponentially backed-off timeout.
		// Credits and buffer occupancy are untouched by a failed attempt.
		lr := &r.retry[slot]
		if k := r.net.fault.LinkFault(now, int(r.ID), int(op), pkt.ID, int(f.idx)); k != fault.None {
			lr.retries++
			r.Stats.LinkRetries++
			if r.net.OnLinkRetry != nil {
				r.net.OnLinkRetry(now, r.ID, op, pkt, int(lr.retries))
			}
			if int(lr.retries) > r.net.fault.MaxRetries() {
				lr.dead = true
				r.Stats.LinkFailures++
				if r.net.OnLinkDead != nil {
					r.net.OnLinkDead(now, r.ID, op, pkt)
				}
			} else {
				backoff := r.net.fault.Backoff(int(lr.retries))
				lr.nextTry = now + backoff
				if pkt.Journey != nil {
					pkt.JRetry += uint64(backoff)
				}
			}
			return
		}
		lr.retries = 0
	}
	if pkt.Journey != nil && f.head() {
		// Head-flit residency in this input VC beyond the mandatory
		// pipeline cycle is contention: time lost to switch allocation,
		// credit stalls and retransmission backoff (JRetry carves the
		// backoff share back out at fold time). Counted on every hop,
		// including the final Local ejection.
		if wait := uint64(now - f.bufferedAt); wait > 1 {
			pkt.JVCWait += wait - 1
		}
	}
	// Pop the front of the ring.
	if vc.head++; int(vc.head) == r.depth {
		vc.head = 0
	}
	if vc.n--; vc.n == 0 {
		r.occ[slot/64] &^= 1 << (slot % 64)
	}
	r.buffered--
	r.Stats.FlitsSwitched++
	ov := int(vc.outVC)
	o := r.outVC(op, ov)
	tail := int(f.idx) == pkt.Size-1

	if op == Local {
		if tail {
			r.ni.eject(f.pkt)
		}
	} else {
		o.cred--
		nb := r.neighbors[op]
		b := (now + 1) % 2
		nb.inbox[b][nb.inboxN[b]] = arrival{pkt: f.pkt, idx: f.idx, slot: uint8(int(op.opposite())*r.net.cfg.VCsPerPort + ov)}
		nb.inboxN[b]++
		nb.wake()
		if f.head() {
			pkt.Hops++
		}
	}
	if tail {
		o.busy = false
		vc.reset()
	}
	r.returnCredit(now, slot)
}

// returnCredit frees one buffer slot of input VC slot toward the upstream
// router, whose matching output VC can use it from the next cycle.
// Local-port occupancy is observed directly by the NI, so no credit is
// needed there.
func (r *Router) returnCredit(now sim.Cycle, slot int) {
	p := Port(r.vcs[slot].port)
	if p == Local {
		return
	}
	v := slot - int(p)*r.net.cfg.VCsPerPort
	r.neighbors[p].outVC(p.opposite(), v).returnCredit(now)
}

// localVCSpace reports the free slots in local input VC v, used by the NI
// in lieu of credits.
func (r *Router) localVCSpace(v int) int {
	if r.vcs == nil {
		r.net.build(r.ID)
	}
	return r.depth - int(r.vcs[int(Local)*r.net.cfg.VCsPerPort+v].n)
}
