package noc

import "inpg/internal/sim"

// Sink receives whole packets ejected at a node. Each node registers one
// sink; the node wiring (package inpg root / internal/coherence) demuxes to
// the L1, directory or memory controller based on the payload.
type Sink interface {
	Receive(now sim.Cycle, p *Packet)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(now sim.Cycle, p *Packet)

// Receive implements Sink.
func (f SinkFunc) Receive(now sim.Cycle, p *Packet) { f(now, p) }

// injection tracks a packet mid-flight between the NI and a local input VC.
type injection struct {
	pkt  uint32 // packet handle; 0 when the slot is idle
	next uint32 // next flit index to send
}

// pktFIFO is a head-indexed queue of packet handles. Popping advances a
// cursor instead of reslicing, so the backing array keeps its capacity and
// steady-state push/pop cycles stop allocating; the buffer compacts once
// the dead prefix dominates.
type pktFIFO struct {
	buf  []uint32
	head int
}

func (q *pktFIFO) push(h uint32) { q.buf = append(q.buf, h) }

func (q *pktFIFO) len() int { return len(q.buf) - q.head }

func (q *pktFIFO) pop() uint32 {
	h := q.buf[q.head]
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head > 32 && q.head*2 >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return h
}

// NI is a network interface: it serializes packets into flits toward the
// local input port of its router (one flit per cycle of injection
// bandwidth) and reassembles ejected flits back into packets for the sink.
type NI struct {
	ID   NodeID
	r    *Router
	eng  *sim.Engine
	sink Sink

	queues [NumVNets]pktFIFO
	active []injection // index = local input VC; pkt 0 when idle
	rrVNet int

	// activeCount and queued mirror the population of active and queues so
	// an idle NI is O(1): Tick skips the slot and vnet scans entirely, and
	// their joint zero is the sleep condition. handle is the NI's
	// wake/sleep handle; Inject wakes it.
	activeCount int
	queued      int
	handle      sim.Handle

	// Delivery batching: at most one packet ejects per cycle (Local is a
	// single output port), so one flush closure per NI, bound on its first
	// ejection, replaces a fresh closure allocation per delivered packet.
	// Entries are packet handles.
	pendingDeliver []uint32
	flushScheduled bool
	flushFn        func()

	// OnInject and OnDeliver, when set, observe every packet entering the
	// injection queue and every packet handed to the sink (tracing).
	OnInject  func(*Packet)
	OnDeliver func(*Packet)

	Injected  uint64
	Delivered uint64
	LatencySum
}

// LatencySum accumulates packet latency statistics.
type LatencySum struct {
	TotalCycles uint64
	Count       uint64
}

// Add records one packet latency sample.
func (l *LatencySum) Add(c sim.Cycle) {
	l.TotalCycles += uint64(c)
	l.Count++
}

// Mean returns the mean latency in cycles, or 0 with no samples.
func (l *LatencySum) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.TotalCycles) / float64(l.Count)
}

// SetSink registers the packet receiver for this node.
func (ni *NI) SetSink(s Sink) { ni.sink = s }

// NewPacket returns a zeroed packet from the network's free list (see
// Network.NewPacket); protocol controllers attached to this NI use it to
// build messages without a per-send heap allocation.
func (ni *NI) NewPacket() *Packet { return ni.r.net.pool.get() }

// Inject queues a packet for transmission and assigns its handle. The
// packet's Src is forced to this node and its size derived from the vnet
// class if unset.
func (ni *NI) Inject(p *Packet) {
	if p.Size == 0 {
		p.Size = ControlFlits
	}
	p.Src = ni.ID
	p.ID = ni.r.net.nextPacketID()
	p.InjectedAt = ni.eng.Now()
	ni.queues[p.VNet].push(ni.r.net.pkts.add(p))
	ni.queued++
	ni.eng.Wake(ni.handle)
	ni.Injected++
	if ni.OnInject != nil {
		ni.OnInject(p)
	}
}

// Tick moves at most one flit from the NI into a local input VC, preferring
// to finish in-flight packets before starting new ones. An idle NI does no
// per-slot work: the counters short-circuit both scans, and when nothing is
// queued or in flight the NI leaves the tick set until the next Inject.
func (ni *NI) Tick(now sim.Cycle) {
	// Continue an in-flight injection.
	if ni.activeCount > 0 {
		for v := range ni.active {
			inj := &ni.active[v]
			if inj.pkt == 0 {
				continue
			}
			if ni.r.localVCSpace(v) <= 0 {
				continue
			}
			ni.sendFlit(now, v, inj)
			return
		}
	}
	// Start a new packet: round-robin across vnets.
	if ni.queued > 0 {
		for i := 0; i < int(NumVNets); i++ {
			vn := VNet((ni.rrVNet + i) % int(NumVNets))
			if ni.queues[vn].len() == 0 {
				continue
			}
			lo, hi := ni.r.vcClass(vn)
			for v := lo; v < hi; v++ {
				if ni.active[v].pkt != 0 || ni.r.localVCSpace(v) <= 0 {
					continue
				}
				ni.active[v] = injection{pkt: ni.queues[vn].pop()}
				ni.queued--
				ni.activeCount++
				ni.sendFlit(now, v, &ni.active[v])
				ni.rrVNet = (int(vn) + 1) % int(NumVNets)
				return
			}
		}
	}
	if ni.activeCount == 0 && ni.queued == 0 {
		ni.eng.Sleep(ni.handle)
	}
}

// sendFlit pushes the next flit of an in-flight injection into local VC v.
func (ni *NI) sendFlit(now sim.Cycle, v int, inj *injection) {
	p := ni.r.net.packet(inj.pkt)
	if p.Journey != nil && inj.next == 0 {
		p.JNIQueue = uint64(now - p.InjectedAt)
	}
	f := flit{pkt: inj.pkt, idx: inj.next}
	consumed := ni.r.acceptFlit(now, int(Local)*ni.r.net.cfg.VCsPerPort+v, f)
	if !consumed {
		ni.r.wake()
	}
	if consumed || int(inj.next) == p.Size-1 {
		*inj = injection{}
		ni.activeCount--
		return
	}
	inj.next++
}

// eject receives the tail flit of packet h, switched to the local output
// port. The whole packet is handed to the sink on the next cycle, modeling
// the ejection link.
func (ni *NI) eject(h uint32) {
	ni.pendingDeliver = append(ni.pendingDeliver, h)
	if !ni.flushScheduled {
		ni.flushScheduled = true
		if ni.flushFn == nil {
			ni.flushFn = ni.flushDeliveries
		}
		ni.eng.Schedule(0, ni.flushFn)
	}
}

// flushDeliveries hands every pending ejected packet to the sink in
// ejection order, then frees its handle and recycles the packet shell. It
// runs one cycle after the tail flit left the router (the ejection link),
// scheduled through the single reusable flushFn closure.
func (ni *NI) flushDeliveries() {
	ni.flushScheduled = false
	// Every packet delivery is liveness progress for the watchdog: a wedged
	// mesh (dead link, stuck protocol) stops delivering, while any healthy
	// run — even one merely spinning on a contended lock — keeps traffic
	// flowing somewhere.
	ni.eng.NoteProgress()
	for len(ni.pendingDeliver) > 0 {
		h := ni.pendingDeliver[0]
		n := copy(ni.pendingDeliver, ni.pendingDeliver[1:])
		ni.pendingDeliver = ni.pendingDeliver[:n]
		p := ni.r.net.packet(h)
		p.DeliveredAt = ni.eng.Now()
		ni.Delivered++
		ni.Add(p.DeliveredAt - p.InjectedAt)
		if p.Journey != nil {
			// Fold this leg into its journey before the sink can retag the
			// record for a response.
			p.Journey.FoldLeg(p.DeliveredAt, int(p.Src), int(p.Dst), p.Hops,
				p.JNIQueue, p.JVCWait, p.JRetry, p.JIntercepted)
		}
		if ni.OnDeliver != nil {
			ni.OnDeliver(p)
		}
		if ni.sink != nil {
			ni.sink.Receive(ni.eng.Now(), p)
		}
		ni.r.net.release(h)
	}
}
