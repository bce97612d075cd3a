// Package coherence implements the directory-based MOESI cache coherence
// protocol of the target many-core: per-node L1 cache controllers and
// home-node directory controllers (colocated with the shared L2 banks),
// exchanging messages over the NoC on three virtual networks.
//
// The directory is blocking: one transaction per line at a time, with
// later requests queued at the home until the active requester sends an
// Unblock. Invalidation acknowledgements are collected at the home, which
// releases the winner with a single AcksComplete message — this matches
// the paper's measurement of the "Inv-Ack round-trip delay between the
// home node and all competing threads" and gives in-network early
// invalidations (package bigrouter) a well-defined accounting point.
package coherence

import (
	"fmt"

	"inpg/internal/journey"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

// MsgType enumerates the coherence protocol messages.
type MsgType int

// Protocol messages. Request class: GetS, GetX, PutM. Forward class:
// FwdGetS, FwdGetX, Inv. Response class: Data, DataExcl, InvAck,
// AcksComplete, Unblock, WBAck.
const (
	MsgGetS MsgType = iota // read request → home
	MsgGetX                // read-for-modification → home
	MsgPutM                // writeback of a dirty/owned line → home

	MsgFwdGetS // home → owner: send a shared copy to Requestor
	MsgFwdGetX // home → owner: yield the line to Requestor; also BR → home (converted, EarlyInv set)
	MsgInv     // home or big router → sharer L1: invalidate, ack to AckTo

	MsgData         // data response, shared (or exclusive if Excl set)
	MsgDataExcl     // data + ownership response
	MsgInvAck       // sharer L1 → AckTo; big router → home when EarlyInv
	MsgAcksComplete // home → requester: all invalidations acknowledged
	MsgUnblock      // requester → home: transaction complete, unblock line
	MsgWBAck        // home → evicting L1

	// Lock-competition messages (the paper's Step 3-4 flow, Figure 4):
	// a losing SWAP is not granted ownership — the home forwards it to the
	// owner, which sends the loser a valid shared copy directly, freeing
	// the home from the lock maintenance burden.
	MsgLockProbe // home → owner: losing swap; serve a shared copy
	MsgCopyBack  // owner → home: downgraded to S, here is the value

	// Synchronization-store release (Section 3.2 Step 4: the holder
	// "releases the lock by changing the lock value ... in the home
	// node"): the new value is written through to the home, which recalls
	// every cached copy and acknowledges once all invalidations complete.
	MsgPutRelease // releaser → home: write-through of the lock word
	MsgReleaseAck // home → releaser: recall storm complete

	// msgReleased is the Type of a message on a free list. No controller
	// handles it, so a released message that is dispatched again ends the
	// run with a ProtocolError from the receiver's default branch.
	msgReleased MsgType = -1
)

var msgNames = map[MsgType]string{
	MsgGetS: "GetS", MsgGetX: "GetX", MsgPutM: "PutM",
	MsgFwdGetS: "FwdGetS", MsgFwdGetX: "FwdGetX", MsgInv: "Inv",
	MsgData: "Data", MsgDataExcl: "DataExcl", MsgInvAck: "InvAck",
	MsgAcksComplete: "AcksComplete", MsgUnblock: "Unblock", MsgWBAck: "WBAck",
	MsgLockProbe: "LockProbe", MsgCopyBack: "CopyBack",
	MsgPutRelease: "PutRelease", MsgReleaseAck: "ReleaseAck",
	msgReleased: "released",
}

// String returns the gem5-style message name.
func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// VNet returns the virtual network class a message type travels on.
func (t MsgType) VNet() noc.VNet {
	switch t {
	case MsgGetS, MsgGetX, MsgPutM, MsgPutRelease:
		return noc.VNetRequest
	case MsgFwdGetS, MsgFwdGetX, MsgInv, MsgLockProbe:
		return noc.VNetForward
	default:
		return noc.VNetResponse
	}
}

// Message is the payload of a coherence packet.
type Message struct {
	Type MsgType
	Addr uint64     // block-aligned
	From noc.NodeID // logical sender (controller's node)

	// Requestor is the L1 on whose behalf a forwarded message acts.
	Requestor noc.NodeID
	// Data carries the line's value on data responses and writebacks.
	Data uint64
	// Excl marks a MsgData response that grants the E state (no sharers).
	Excl bool
	// Peek marks a MsgData response answering a failed lock SWAP: it
	// carries only the lock word (critical word), not the whole block,
	// and travels as a single-flit control packet.
	Peek bool

	// AckTo tells the invalidated L1 where to send its InvAck: the home
	// node normally, the generating big router for early invalidations.
	AckTo noc.NodeID
	// AckFor names the sharer an InvAck covers (the invalidated L1).
	AckFor noc.NodeID
	// EarlyInv marks iNPG-generated traffic: on MsgInv, the invalidation
	// was generated by a big router; on MsgFwdGetX toward the home, the
	// request was stopped in-network and its issuer already invalidated;
	// on MsgInvAck toward the home, the ack was relayed by a big router.
	EarlyInv bool

	// ToDir routes the message to the directory controller at the
	// destination node rather than the L1.
	ToDir bool

	// LockAddr is the lock diagnostic flag: set on GetX issued by atomic
	// lock operations so big routers key their barrier tables on it.
	LockAddr bool

	// IsSwap marks a GetX issued by an atomic SWAP; Operand carries the
	// value being swapped in. A swap of the value already present is a
	// no-op, which lets the home (or the owner) satisfy a losing SWAP
	// with a shared copy instead of transferring ownership — the paper's
	// Step 4 ("the winning thread sends a valid lock copy to each of the
	// losing threads").
	IsSwap  bool
	Operand uint64
	// Recall marks an invalidation from a release write-through: the
	// target drops its copy whatever its state — the released value
	// supersedes any cached one.
	Recall bool

	// Token uniquely identifies one big-router stop event. It rides on
	// the converted FwdGetX, the early Inv, the echoing InvAck and the
	// relayed ack, letting the home pair each relayed acknowledgement
	// with exactly the invalidation it answers.
	Token uint64

	// Journey, when non-nil, ties this message to a sampled lock-journey
	// record (internal/journey). It rides alongside Seq on the requesting
	// thread's serial chain only — the request, the probes and data
	// replies serving it, and the completion acks — never on Inv fan-out
	// or writebacks, whose latency a journey observes as directory-stage
	// time. packetFor copies it onto the wire so the NoC can attribute
	// per-leg cycles.
	Journey *journey.Record

	// Seq is the issuing L1's transaction sequence number. Requests carry
	// it, and every response or forwarded probe echoes it, so a response
	// that outlived its transaction — a floating AcksComplete from a
	// lock-probe fast path, a data reply delayed past a retry storm — can
	// never complete a *later* transaction on the same address. Without
	// this match, link-level retransmission delays can reorder a stale
	// completion into a fresh transaction and wedge the home directory on
	// an acknowledgement that was already consumed.
	Seq uint64
}

func (m *Message) String() string {
	return fmt.Sprintf("%v addr=%#x from=%d req=%d data=%d", m.Type, m.Addr, m.From, m.Requestor, m.Data)
}

// MsgPool is a Fabric's free list of protocol messages. A message has one
// owner at a time — its sender until injection, then its receiver — and
// the receiver releases it exactly once, where it is consumed (see
// DESIGN.md, "Hot-path memory ownership"). A Fabric's simulation is
// single-threaded, so the pool needs no locking. A nil *MsgPool allocates
// and never recycles.
type MsgPool struct {
	eng  *sim.Engine
	free []*Message
}

// New returns a message holding v, recycling a released one when
// available.
func (p *MsgPool) New(v Message) *Message {
	var m *Message
	if p != nil && len(p.free) > 0 {
		n := len(p.free) - 1
		m = p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
	} else {
		m = new(Message)
	}
	*m = v
	return m
}

// put releases m, which the caller at node consumed. Its Type becomes the
// released sentinel until reuse; releasing it again ends the run with a
// ProtocolError.
func (p *MsgPool) put(m *Message, node noc.NodeID, component string) {
	if p == nil {
		return
	}
	if m.Type == msgReleased {
		p.eng.Fail(&ProtocolError{Node: int(node), Component: component,
			Detail: fmt.Sprintf("message released twice: %v", m)})
		return
	}
	m.Type = msgReleased
	m.Journey = nil
	p.free = append(p.free, m)
}

// packetFor wraps a message in a pooled NoC packet bound for dst.
func packetFor(ni *noc.NI, m *Message, dst noc.NodeID, priority int) *noc.Packet {
	size := noc.ControlFlits
	if (m.Type == MsgData || m.Type == MsgDataExcl) && !m.Peek {
		size = noc.DataFlits
	}
	p := ni.NewPacket()
	p.Dst = dst
	p.VNet = m.Type.VNet()
	p.Size = size
	p.Priority = priority
	p.LockReq = m.Type == MsgGetX && m.LockAddr
	p.Addr = m.Addr
	p.Payload = m
	p.Journey = m.Journey
	return p
}

// HomeMap maps block addresses to their home node (the L2 bank/directory
// slice responsible for them). Blocks interleave across all nodes.
type HomeMap struct {
	Nodes      int
	BlockBytes int
}

// Home returns the home node of addr.
func (h HomeMap) Home(addr uint64) noc.NodeID {
	return noc.NodeID((addr / uint64(h.BlockBytes)) % uint64(h.Nodes))
}

// AddrForHome returns the n-th block address homed at node, letting tests
// and workloads place locks at chosen L2 banks (e.g. the paper's Figure 10
// scenario with the lock at core (5,6)).
func (h HomeMap) AddrForHome(node noc.NodeID, n int) uint64 {
	return (uint64(n)*uint64(h.Nodes) + uint64(node)) * uint64(h.BlockBytes)
}
