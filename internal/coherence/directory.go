package coherence

import (
	"fmt"
	"math/bits"

	"inpg/internal/noc"
	"inpg/internal/sim"
)

// Memory is the DRAM access interface the directory uses on a miss in its
// backing map (a cold block). internal/memory provides the implementation.
type Memory interface {
	Read(addr uint64, done func(value uint64))
}

// RTTRecorder receives one sample per completed invalidation round trip
// (Inv sent → InvAck received at the generator). Both directories and big
// routers report into it; internal/stats implements it.
type RTTRecorder interface {
	RecordRTT(core noc.NodeID, rtt sim.Cycle)
}

// earlyRec tracks iNPG early-invalidation state for one sharer of a line:
// its existence means a big router has invalidated (or is invalidating)
// that sharer; ackArrived means the relayed InvAck already reached home.
// The token pairs the record with exactly one stop event's ack.
type earlyRec struct {
	token      uint64
	ackArrived bool
}

// dirLine is the directory's view of one block.
type dirLine struct {
	present bool
	value   uint64
	owner   noc.NodeID // noNode when unowned
	sharers nodeSet

	busy     bool
	fetching bool
	cur      *Message // the active request; released when cleared
	waiting  nodeSet  // sharers whose invalidation ack is outstanding
	pending  []*Message

	// ackWaitFrom is when the active GetX or release began collecting
	// acks, valid while ackWaiting.
	ackWaitFrom sim.Cycle
	ackWaiting  bool

	early map[noc.NodeID]earlyRec
}

// noNode marks the absence of an owner.
const noNode = noc.NodeID(-1)

// nodeSet is a fixed-width bitset of node IDs, sized from the node count
// when its line is created. Ascending bit order is ascending node order,
// which keeps invalidation fan-out deterministic for a given seed.
type nodeSet []uint64

func (s nodeSet) add(n noc.NodeID)      { s[n>>6] |= 1 << (n & 63) }
func (s nodeSet) remove(n noc.NodeID)   { s[n>>6] &^= 1 << (n & 63) }
func (s nodeSet) has(n noc.NodeID) bool { return s[n>>6]&(1<<(n&63)) != 0 }

func (s nodeSet) clear() {
	for i := range s {
		s[i] = 0
	}
}

func (s nodeSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s nodeSet) len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// members lists the set in ascending order.
func (s nodeSet) members() []noc.NodeID {
	var out []noc.NodeID
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, noc.NodeID(i<<6|bits.TrailingZeros64(w)))
		}
	}
	return out
}

func newDirLine(nodes int) *dirLine {
	w := (nodes + 63) / 64
	sets := make(nodeSet, 2*w)
	return &dirLine{
		owner:   noNode,
		sharers: sets[:w:w],
		waiting: sets[w:],
		early:   make(map[noc.NodeID]earlyRec),
	}
}

// DirStats counts directory activity.
type DirStats struct {
	GetS, GetX, PutM      uint64
	Releases              uint64 // synchronization-store write-throughs
	CopyBacks             uint64 // owner downgrades absorbed
	SwapFails             uint64 // losing SWAPs satisfied with shared copies
	LockPeeks             uint64 // losing SWAPs forwarded to the owner
	EarlyFwdGetX          uint64 // stopped-swap notifications from big routers
	InvsSent              uint64
	EarlyInvSkipped       uint64 // invalidations not sent thanks to iNPG
	AcksDropped           uint64
	ForwardedGetX         uint64
	MemFetches            uint64
	QueuedRequests        uint64
	TxnStarted, TxnEnded  uint64
	AckWaitCyclesTotal    uint64 // GetX service → last ack, summed
	AckWaitCount          uint64
	EarlyRecsUsed         uint64
	EarlyAckBeforeService uint64
	RelayedAckHits        uint64 // winner waits satisfied by relayed early acks
	StaleUnblocks         uint64 // unblocks whose Seq outlived their transaction
	StaleCopyBacks        uint64 // copy-backs whose Seq outlived their transaction
}

// DirConfig configures a directory/L2-bank controller.
type DirConfig struct {
	// L2Latency is the bank access latency applied to every message.
	L2Latency sim.Cycle
	// DisableAckOverlap turns off the iNPG ack-overlap optimization: a
	// relayed early acknowledgement may then satisfy only its own token
	// wait, never a pending direct-invalidation wait. Exists for the
	// mechanism-component ablation (experiments.AblationAckOverlap).
	DisableAckOverlap bool
}

// DefaultDirConfig returns Table 1's shared L2: 6-cycle bank latency.
func DefaultDirConfig() DirConfig { return DirConfig{L2Latency: 6} }

// Dir is the home-node directory controller for the blocks interleaved to
// this node, colocated with the local shared L2 bank.
type Dir struct {
	Node  noc.NodeID
	eng   *sim.Engine
	ni    *noc.NI
	mem   Memory
	cfg   DirConfig
	rtt   RTTRecorder
	msgs  *MsgPool
	nodes int // sizes each line's sharer sets

	// bank delivers received messages to handle after the L2 latency.
	bank delayLine[*Message]

	// lines and the three maps below are made with the first line (see
	// line): most nodes home no line a run touches.
	lines   map[uint64]*dirLine
	invSent map[invKey]sim.Cycle
	// floating holds the tokens of early-invalidation acks still in
	// flight whose records were consumed unacked (the issuer's own request
	// was serviced, giving it a fresh copy); such acks refer to a copy
	// that no longer exists and are discarded on arrival.
	floating map[uint64]struct{}
	// waitTokens maps a waited-on sharer to the stop token whose relayed
	// ack satisfies it (eiSkip waits); direct-invalidation waits have no
	// entry and are satisfied by direct acks.
	waitTokens map[invKey]uint64

	Stats DirStats
}

type invKey struct {
	addr   uint64
	target noc.NodeID
}

// makeDir returns the directory controller for node on a mesh of nodes
// nodes, taking its messages from msgs.
func makeDir(eng *sim.Engine, node noc.NodeID, ni *noc.NI, mem Memory, msgs *MsgPool, cfg DirConfig, nodes int) Dir {
	return Dir{
		Node:  node,
		eng:   eng,
		ni:    ni,
		mem:   mem,
		msgs:  msgs,
		cfg:   cfg,
		nodes: nodes,
	}
}

// SetRTTRecorder installs the invalidation round-trip sampler.
func (d *Dir) SetRTTRecorder(r RTTRecorder) { d.rtt = r }

// line returns (creating if needed) the directory entry for addr. The
// first line made also makes the directory's maps: every write to the
// other three concerns a line this node homes, and until then they read
// as empty.
func (d *Dir) line(addr uint64) *dirLine {
	ln := d.lines[addr]
	if ln == nil {
		if d.lines == nil {
			d.lines = make(map[uint64]*dirLine)
			d.invSent = make(map[invKey]sim.Cycle)
			d.floating = make(map[uint64]struct{})
			d.waitTokens = make(map[invKey]uint64)
		}
		ln = newDirLine(d.nodes)
		d.lines[addr] = ln
	}
	return ln
}

// send wraps a pooled copy of m in a packet and injects it.
func (d *Dir) send(m Message, dst noc.NodeID, priority int) {
	m.From = d.Node
	d.ni.Inject(packetFor(d.ni, d.msgs.New(m), dst, priority))
}

// release returns a consumed message to the pool.
func (d *Dir) release(m *Message) { d.msgs.put(m, d.Node, "dir") }

// endTxn ends the active transaction, releasing its request.
func (d *Dir) endTxn(ln *dirLine) {
	if ln.cur != nil {
		d.release(ln.cur)
	}
	ln.busy = false
	ln.cur = nil
	d.txnEnded()
	d.drain(ln)
}

// relayJourney carries a tagged request's journey onto a message the home
// sends on its behalf — the forward/probe toward the owner, the data
// grant, the completion ack — and closes the home-service window: the
// cycles between the request's delivery (or the previous relayed send)
// and this send are directory-stage time, which is where L2 latency,
// pending-queue wait behind earlier transactions and invalidation-ack
// collection all land.
func (d *Dir) relayJourney(resp, req *Message) {
	if req == nil || req.Journey == nil {
		return
	}
	resp.Journey = req.Journey
	req.Journey.Remote(d.eng.Now())
}

// Receive queues a message for handling after the L2 bank latency.
func (d *Dir) Receive(now sim.Cycle, m *Message) {
	if !d.bank.bound() {
		d.bank.bind(d.handle)
	}
	d.bank.push(d.eng, d.cfg.L2Latency-1, m)
}

// handle dispatches one message at the bank. Responses are released once
// absorbed; a request is released when its service ends (servicing it
// without blocking the line, or clearing ln.cur).
func (d *Dir) handle(m *Message) {
	ln := d.line(m.Addr)
	switch m.Type {
	case MsgGetS, MsgGetX, MsgPutM, MsgPutRelease:
		d.admit(ln, m)
		return
	case MsgFwdGetX:
		// A big router stopped this lock request and invalidated its
		// issuer in-network. Record that (the next exclusive transaction
		// neither re-invalidates the issuer nor pays a long-range round
		// trip for its ack), then service the issuer's request normally —
		// the stop delays and re-routes the request, it never cancels it,
		// so a request that would have won (the lock went free under a
		// live barrier) still wins here.
		d.Stats.EarlyFwdGetX++
		if old, ok := ln.early[m.Requestor]; ok && !old.ackArrived {
			// A superseded record's ack is still in flight: float it.
			d.floating[old.token] = struct{}{}
		}
		ln.early[m.Requestor] = earlyRec{token: m.Token}
		req := d.msgs.New(Message{
			Type: MsgGetX, Addr: m.Addr, From: m.Requestor, Requestor: m.Requestor,
			LockAddr: m.LockAddr, IsSwap: m.IsSwap, Operand: m.Operand, Seq: m.Seq,
			Journey: m.Journey,
		})
		d.release(m)
		d.admit(ln, req)
		return
	case MsgInvAck:
		d.onAck(ln, m)
	case MsgUnblock:
		d.onUnblock(ln, m)
	case MsgCopyBack:
		d.onCopyBack(ln, m)
	default:
		d.eng.Fail(&ProtocolError{Node: int(d.Node), Component: "dir",
			Detail: fmt.Sprintf("unexpected %v", m)})
		return
	}
	d.release(m)
}

// txnStarted and txnEnded bracket every blocking directory transaction.
// Both are liveness progress for the watchdog: a wedged system — dead link,
// unreachable home — stops starting and ending transactions.
func (d *Dir) txnStarted() {
	d.Stats.TxnStarted++
	d.eng.NoteProgress()
}

func (d *Dir) txnEnded() {
	d.Stats.TxnEnded++
	d.eng.NoteProgress()
}

// admit services a request now or queues it behind the active transaction.
func (d *Dir) admit(ln *dirLine, m *Message) {
	if ln.busy || ln.fetching {
		d.Stats.QueuedRequests++
		ln.pending = append(ln.pending, m)
		return
	}
	d.service(ln, m)
	d.drain(ln)
}

// drain services queued requests for as long as the line stays idle
// (non-blocking services — shared reads, failed-swap replies, writebacks —
// keep the queue moving without waiting for an unblock).
func (d *Dir) drain(ln *dirLine) {
	for !ln.busy && !ln.fetching && len(ln.pending) > 0 {
		next := ln.pending[0]
		n := copy(ln.pending, ln.pending[1:])
		ln.pending[n] = nil
		ln.pending = ln.pending[:n]
		d.service(ln, next)
	}
}

// service begins a transaction for m. The line must be idle.
func (d *Dir) service(ln *dirLine, m *Message) {
	if !ln.present {
		// Cold block: fetch from DRAM first.
		ln.fetching = true
		d.Stats.MemFetches++
		addr := m.Addr
		d.mem.Read(addr, func(v uint64) {
			ln.fetching = false
			ln.present = true
			ln.value = v
			d.service(ln, m)
			d.drain(ln)
		})
		return
	}
	switch m.Type {
	case MsgGetS:
		d.serviceGetS(ln, m)
	case MsgGetX:
		d.serviceGetX(ln, m)
	case MsgPutM:
		d.servicePutM(ln, m)
	case MsgPutRelease:
		d.servicePutRelease(ln, m)
	}
}

// servicePutRelease applies a synchronization store: the home takes the
// released value, recalls every cached copy — owner included — and
// acknowledges the releaser once all invalidation acks are in. This is
// THE lock coherence event iNPG attacks: competing threads with SWAPs in
// flight were already invalidated by big routers (their relayed acks
// satisfy the wait), so only passive copies pay the full home round trip.
func (d *Dir) servicePutRelease(ln *dirLine, m *Message) {
	d.Stats.Releases++
	req := m.Requestor
	ln.busy = true
	ln.cur = m
	d.txnStarted()
	ln.ackWaitFrom, ln.ackWaiting = d.eng.Now(), true
	ln.value = m.Data

	d.invalidateSharers(ln, m.Addr, req, true)
	if ln.owner != noNode && ln.owner != req {
		d.invalidateSharer(ln, m.Addr, req, ln.owner, true)
	}
	ln.sharers.clear()
	ln.owner = noNode

	if ln.waiting.empty() {
		d.finishAcks(ln, m.Addr)
	}
}

// serviceGetS grants a read copy. Uncached lines are granted exclusively
// (blocking until the requester unblocks); owned lines are forwarded to
// the owner, which downgrades to Shared and copies the value back to the
// home (blocking until that CopyBack); plain shared reads are answered
// directly and do not block the line.
func (d *Dir) serviceGetS(ln *dirLine, m *Message) {
	d.Stats.GetS++
	req := m.Requestor
	// The requester is about to get a fresh copy: any early-invalidation
	// record for it is now history (its relayed ack, if still in flight,
	// becomes floating and will be dropped).
	d.consumeEarlyRec(ln, m.Addr, req)
	switch {
	case ln.owner != noNode && ln.owner != req:
		ln.busy = true
		ln.cur = m
		d.txnStarted()
		fwd := Message{Type: MsgFwdGetS, Addr: m.Addr, Requestor: req, Data: ln.value, LockAddr: m.LockAddr, Seq: m.Seq}
		d.relayJourney(&fwd, m)
		d.send(fwd, ln.owner, respPriority)
	case ln.owner == noNode && ln.sharers.empty() && !m.LockAddr:
		// Exclusive grant for ordinary cold reads. Lock-word reads are
		// always granted Shared: an exclusive copy would let the first
		// spinner's SWAP upgrade silently in its own cache, serializing
		// the competition the protocol is supposed to arbitrate.
		ln.busy = true
		ln.cur = m
		d.txnStarted()
		ln.owner = req
		grant := Message{Type: MsgData, Addr: m.Addr, Data: ln.value, Requestor: req, Excl: true, Seq: m.Seq}
		d.relayJourney(&grant, m)
		d.send(grant, req, respPriority)
	default:
		ln.sharers.add(req)
		grant := Message{Type: MsgData, Addr: m.Addr, Data: ln.value, Requestor: req, Peek: m.LockAddr, Seq: m.Seq}
		d.relayJourney(&grant, m)
		d.send(grant, req, respPriority)
		d.release(m)
	}
}

// onCopyBack absorbs an owner's downgrade (after FwdGetS or a lock peek):
// the old owner and the requester of the active forward both become
// sharers, nobody owns the line, and the transaction ends.
func (d *Dir) onCopyBack(ln *dirLine, m *Message) {
	if ln.busy && ln.cur != nil && m.Seq != ln.cur.Seq {
		// A copy-back from an already-ended forward must not end the
		// active transaction (or clobber its ownership bookkeeping).
		d.Stats.StaleCopyBacks++
		return
	}
	d.Stats.CopyBacks++
	ln.value = m.Data
	ln.sharers.add(m.From)
	ln.owner = noNode
	if ln.busy && ln.cur != nil {
		ln.sharers.add(ln.cur.Requestor)
		d.endTxn(ln)
	}
}

// serviceGetX grants exclusive ownership: the previous owner (if any)
// forwards the data, every other sharer is invalidated — directly by the
// home, or already in-network by a big router (early records) — and the
// home releases the requester with AcksComplete once every ack arrives.
func (d *Dir) serviceGetX(ln *dirLine, m *Message) {
	d.Stats.GetX++
	req := m.Requestor

	// The requester is about to get a fresh (exclusive) copy: consume any
	// early record it still has.
	d.consumeEarlyRec(ln, m.Addr, req)

	// Failed-swap fast paths (the paper's Step 3-4): a SWAP that would
	// write the value already present is a no-op, so the loser receives a
	// valid shared copy instead of ownership and retries at the spin
	// level. With no owner the home decides from its own (current) value;
	// with an owner the peek is forwarded and the owner decides.
	if m.IsSwap && ln.owner == noNode && ln.value == m.Operand {
		d.Stats.SwapFails++
		ln.sharers.add(req)
		fail := Message{Type: MsgData, Addr: m.Addr, Data: ln.value, Requestor: req, Peek: true, Seq: m.Seq}
		d.relayJourney(&fail, m)
		d.send(fail, req, respPriority)
		d.release(m)
		return
	}
	if m.IsSwap && ln.owner != noNode && ln.owner != req {
		// Forward the losing swap to the owner (the paper's Step 4): if
		// the lock is occupied the owner downgrades and serves the loser a
		// shared copy directly (CopyBack ends the transaction and leaves
		// the value at the home, so subsequent losers fast-fail above);
		// if it was released in the meantime the owner yields ownership
		// and the requester completes like a plain GetX.
		d.Stats.LockPeeks++
		ln.busy = true
		ln.cur = m
		d.txnStarted()
		probe := Message{Type: MsgLockProbe, Addr: m.Addr, Requestor: req, Operand: m.Operand, LockAddr: m.LockAddr, Seq: m.Seq}
		d.relayJourney(&probe, m)
		d.send(probe, ln.owner, respPriority)
		// An owner implies no sharers: no acks needed either way. The
		// eager AcksComplete carries the transaction Seq: if the probe is
		// served with a shared copy instead, this message goes unconsumed,
		// and the Seq match is what keeps the floater from completing a
		// later transaction by the same requester.
		ln.owner = req
		eager := Message{Type: MsgAcksComplete, Addr: m.Addr, Requestor: req, Seq: m.Seq}
		d.relayJourney(&eager, m)
		d.send(eager, req, respPriority)
		return
	}

	ln.busy = true
	ln.cur = m
	d.txnStarted()
	ln.ackWaitFrom, ln.ackWaiting = d.eng.Now(), true

	if ln.owner != noNode && ln.owner != req {
		d.Stats.ForwardedGetX++
		fwd := Message{Type: MsgFwdGetX, Addr: m.Addr, Requestor: req, Data: ln.value, LockAddr: m.LockAddr, Seq: m.Seq}
		d.relayJourney(&fwd, m)
		d.send(fwd, ln.owner, respPriority)
	} else {
		grant := Message{Type: MsgDataExcl, Addr: m.Addr, Data: ln.value, Requestor: req, Peek: m.LockAddr, Seq: m.Seq}
		d.relayJourney(&grant, m)
		d.send(grant, req, respPriority)
	}

	d.invalidateSharers(ln, m.Addr, req, false)
	ln.sharers.clear()
	ln.owner = req

	if ln.waiting.empty() {
		d.finishAcks(ln, m.Addr)
	}
}

// servicePutM absorbs a writeback. Writebacks complete immediately (no
// Unblock): stale ones — the line moved on while the PutM was in flight —
// are acknowledged without touching state.
func (d *Dir) servicePutM(ln *dirLine, m *Message) {
	d.Stats.PutM++
	if ln.owner == m.Requestor {
		ln.value = m.Data
		ln.owner = noNode
	}
	d.send(Message{Type: MsgWBAck, Addr: m.Addr, Requestor: m.Requestor}, m.Requestor, respPriority)
	d.release(m)
}

// consumeEarlyRec retires node's early-invalidation record because it is
// about to receive a fresh copy; an unarrived relayed ack turns floating.
func (d *Dir) consumeEarlyRec(ln *dirLine, addr uint64, node noc.NodeID) {
	rec, ok := ln.early[node]
	if !ok {
		return
	}
	delete(ln.early, node)
	if !rec.ackArrived {
		d.floating[rec.token] = struct{}{}
	}
}

// invalidateSharers invalidates every sharer except req, in ascending
// node order.
func (d *Dir) invalidateSharers(ln *dirLine, addr uint64, req noc.NodeID, recall bool) {
	for i, w := range ln.sharers {
		for ; w != 0; w &= w - 1 {
			if s := noc.NodeID(i<<6 | bits.TrailingZeros64(w)); s != req {
				d.invalidateSharer(ln, addr, req, s, recall)
			}
		}
	}
}

// invalidateSharer arranges for sharer s to drop its copy during the
// active transaction: a live early record means a big router already
// invalidated it (its relayed ack — matched by token — either arrived or
// is awaited); otherwise the home sends a direct invalidation.
func (d *Dir) invalidateSharer(ln *dirLine, addr uint64, req, s noc.NodeID, recall bool) {
	if rec, ok := ln.early[s]; ok {
		d.Stats.EarlyRecsUsed++
		delete(ln.early, s)
		if rec.ackArrived {
			d.Stats.EarlyAckBeforeService++
			return // ack already in hand
		}
		d.Stats.EarlyInvSkipped++
		ln.waiting.add(s)
		d.waitTokens[invKey{addr, s}] = rec.token
		return
	}
	d.Stats.InvsSent++
	d.invSent[invKey{addr, s}] = d.eng.Now()
	d.send(Message{Type: MsgInv, Addr: addr, AckTo: d.Node, Requestor: req, Recall: recall}, s, respPriority)
	ln.waiting.add(s)
}

// onAck consumes an invalidation acknowledgement. Acks for sharers the
// active transaction is waiting on count toward completion; early-relayed
// acks that beat their FwdGetX to the home are remembered; anything else
// is a duplicate from a doubly-invalidated sharer and is dropped.
func (d *Dir) onAck(ln *dirLine, m *Message) {
	s := m.AckFor
	key := invKey{m.Addr, s}
	if m.EarlyInv {
		// Relayed acks pair with their stop event by token.
		if _, ok := d.floating[m.Token]; ok {
			delete(d.floating, m.Token)
			d.Stats.AcksDropped++
			return
		}
		if ln.busy {
			waited := ln.waiting.has(s)
			tok, tokenWait := d.waitTokens[key]
			// A relayed ack satisfies a token wait with its own token, and
			// may also satisfy a direct-invalidation wait: the early Inv
			// invalidated the very copy the direct Inv targets, and it
			// usually returns by the shorter path — the paper's overlap.
			// The direct ack that arrives later is dropped, and the
			// record (if its request is still queued) is marked acked so
			// it never turns into a phantom floating token.
			allowOverlap := !tokenWait && !d.cfg.DisableAckOverlap
			if waited && (allowOverlap || (tokenWait && tok == m.Token)) {
				ln.waiting.remove(s)
				delete(d.waitTokens, key)
				d.Stats.RelayedAckHits++
				if rec, ok := ln.early[s]; ok && rec.token == m.Token {
					rec.ackArrived = true
					ln.early[s] = rec
				}
				if ln.waiting.empty() {
					d.finishAcks(ln, m.Addr)
				}
				return
			}
		}
		if rec, ok := ln.early[s]; ok && rec.token == m.Token {
			rec.ackArrived = true
			ln.early[s] = rec
			return
		}
		// The relayed ack overtook its FwdGetX; remember it for the
		// service pass.
		ln.early[s] = earlyRec{token: m.Token, ackArrived: true}
		return
	}
	// Direct acks satisfy direct-invalidation waits (those without a
	// token expectation).
	if ln.busy {
		if ln.waiting.has(s) {
			if _, tokenWait := d.waitTokens[key]; !tokenWait {
				ln.waiting.remove(s)
				if t0, ok := d.invSent[key]; ok {
					if d.rtt != nil {
						d.rtt.RecordRTT(s, d.eng.Now()-t0)
					}
					delete(d.invSent, key)
				}
				if ln.waiting.empty() {
					d.finishAcks(ln, m.Addr)
				}
				return
			}
		}
	}
	d.Stats.AcksDropped++
	delete(d.invSent, key)
}

// finishAcks releases the active GetX requester.
func (d *Dir) finishAcks(ln *dirLine, addr uint64) {
	if ln.ackWaiting {
		d.Stats.AckWaitCyclesTotal += uint64(d.eng.Now() - ln.ackWaitFrom)
		d.Stats.AckWaitCount++
		ln.ackWaiting = false
	}
	if ln.cur == nil {
		return
	}
	switch ln.cur.Type {
	case MsgGetX:
		done := Message{Type: MsgAcksComplete, Addr: addr, Requestor: ln.cur.Requestor, Seq: ln.cur.Seq}
		d.relayJourney(&done, ln.cur)
		d.send(done, ln.cur.Requestor, respPriority)
	case MsgPutRelease:
		// The recall storm is over: acknowledge the releaser and free the
		// line (no unblock follows a release).
		done := Message{Type: MsgReleaseAck, Addr: addr, Requestor: ln.cur.Requestor, Seq: ln.cur.Seq}
		d.relayJourney(&done, ln.cur)
		d.send(done, ln.cur.Requestor, respPriority)
		d.endTxn(ln)
	}
}

// onUnblock ends the active transaction and services the next queued
// request.
func (d *Dir) onUnblock(ln *dirLine, m *Message) {
	if !ln.busy {
		return
	}
	if ln.cur != nil && (m.Requestor != ln.cur.Requestor || m.Seq != ln.cur.Seq) {
		// An unblock for a transaction that already ended must not end
		// the one now active — it may still be collecting acks, and
		// ending it here would strand the wait set.
		d.Stats.StaleUnblocks++
		return
	}
	d.endTxn(ln)
}

// DebugLine renders a line's full directory state for diagnostics.
func (d *Dir) DebugLine(addr uint64) string {
	ln, ok := d.lines[addr]
	if !ok {
		return "no line"
	}
	cur := "nil"
	if ln.cur != nil {
		cur = ln.cur.String()
	}
	return fmt.Sprintf("val=%d owner=%d sharers=%v busy=%v fetching=%v cur=%s waiting=%v pending=%d early=%v floating=%v",
		ln.value, ln.owner, ln.sharers.members(), ln.busy, ln.fetching, cur,
		ln.waiting.members(), len(ln.pending), len(ln.early), d.floating)
}

// LineInfo reports a line's directory state for tests and invariant
// checkers: its value, owner (or -1) and sharers in ascending order.
func (d *Dir) LineInfo(addr uint64) (value uint64, owner noc.NodeID, sharers []noc.NodeID, busy bool) {
	ln, ok := d.lines[addr]
	if !ok {
		return 0, noNode, nil, false
	}
	return ln.value, ln.owner, ln.sharers.members(), ln.busy
}
