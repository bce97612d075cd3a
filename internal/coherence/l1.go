package coherence

import (
	"fmt"

	"inpg/internal/cache"
	"inpg/internal/journey"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

// AtomicOp selects the read-modify-write performed by L1.Atomic.
type AtomicOp int

// Atomic operation kinds used by the lock primitives.
const (
	// Swap atomically exchanges the word with operand A (the paper's SWAP
	// instruction / gem5 GetX path).
	Swap AtomicOp = iota
	// FetchAdd atomically adds operand A and returns the old value
	// (ticket and ABQL tail counters).
	FetchAdd
	// CompareSwap writes operand B if the word equals operand A, returning
	// the old value (MCS tail updates).
	CompareSwap
)

// opKind distinguishes the pending CPU operation held in an MSHR entry.
type opKind int

const (
	opLoad opKind = iota
	opStore
	opAtomic
)

// pendingOp is the CPU operation bound to an outstanding transaction,
// held by value in its MSHR entry.
type pendingOp struct {
	kind    opKind
	atomic  AtomicOp
	lock    bool
	a, b    uint64
	cb      func(uint64) // loads: the value; atomics: the pre-op value
	storeCB func()
	issued  sim.Cycle
}

// hitResult is one load or atomic hit waiting out the hit latency.
type hitResult struct {
	cb func(uint64)
	v  uint64
}

// trState is the transient protocol state of an MSHR entry.
const (
	trIS  = iota // GetS outstanding, waiting for Data
	trIM         // GetX outstanding, waiting for DataExcl + AcksComplete
	trREL        // PutRelease outstanding, waiting for ReleaseAck
)

// L1Stats counts controller activity.
type L1Stats struct {
	Loads, Stores, Atomics uint64
	Hits, Misses           uint64
	InvsReceived           uint64
	StaleInvsIgnored       uint64
	WritebacksSent         uint64
	SwapsFailed            uint64 // atomics completed as failed via shared copies
	ProbesServed           uint64 // losing swaps this owner answered directly
	ProbesFailed           uint64 // probes that missed (lock state changed)
	StaleResponsesIgnored  uint64 // responses whose Seq outlived their transaction
	LockStallCycles        uint64 // cycles lock-flagged ops spent outstanding
	TotalStallCycles       uint64
}

// L1Config configures one private L1 controller.
type L1Config struct {
	Cache      cache.Config
	MSHRs      int
	HitLatency sim.Cycle
}

// DefaultL1Config returns the paper's Table 1 L1: 32 KB, 4-way, 128 B
// blocks, 2-cycle latency, 32 MSHRs.
func DefaultL1Config() L1Config {
	return L1Config{
		Cache:      cache.Config{SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 128},
		MSHRs:      32,
		HitLatency: 2,
	}
}

// L1 is a private, coherent L1 cache controller. The attached core issues
// Load/Store/Atomic operations with completion callbacks; the controller
// exchanges protocol messages with directory controllers through the NoC.
type L1 struct {
	Node  noc.NodeID
	eng   *sim.Engine
	arr   cache.Cache
	mshr  cache.MSHR[pendingOp]
	ni    *noc.NI
	homes HomeMap
	msgs  *MsgPool
	// hitLatency is the array access time of a hit.
	hitLatency sim.Cycle

	// hits delivers load and atomic hit results after the hit latency.
	hits delayLine[hitResult]

	// evict holds data of dirty lines between PutM and WBAck so in-flight
	// forwards can still be serviced. Made on the first writeback.
	evict map[uint64]uint64

	// seq stamps each transaction; responses must echo it (Message.Seq).
	seq uint64

	// journey, when armed (SetJourney), tags every request this L1 issues
	// with the active lock-journey record until disarmed at acquire
	// completion. Purely observational: it rides beside Seq and changes
	// no protocol decision.
	journey *journey.Record

	Stats L1Stats
}

// makeL1 returns an L1 controller for node, injecting through ni and
// taking its messages from msgs.
func makeL1(eng *sim.Engine, node noc.NodeID, ni *noc.NI, homes HomeMap, msgs *MsgPool, cfg L1Config) (L1, error) {
	arr, err := cache.Make(cfg.Cache)
	if err != nil {
		return L1{}, fmt.Errorf("l1 node %d: %w", node, err)
	}
	return L1{
		Node:       node,
		eng:        eng,
		arr:        arr,
		mshr:       cache.MakeMSHR[pendingOp](cfg.MSHRs),
		ni:         ni,
		homes:      homes,
		msgs:       msgs,
		hitLatency: cfg.HitLatency,
	}, nil
}

// Cache exposes the underlying array for invariant checkers and tests.
func (l *L1) Cache() *cache.Cache { return &l.arr }

// MSHR exposes the miss status holding register file (diagnostics,
// telemetry occupancy gauges).
func (l *L1) MSHR() *cache.MSHR[pendingOp] { return &l.mshr }

// nextSeq stamps a new transaction. Starting at 1 keeps the zero value
// distinct from any real transaction.
func (l *L1) nextSeq() uint64 {
	l.seq++
	return l.seq
}

// SetJourney arms (or with nil disarms) lock-journey tagging for this
// L1's future requests; the root package's journey lock decorator calls
// it around each sampled acquisition.
func (l *L1) SetJourney(r *journey.Record) { l.journey = r }

// tagJourney attaches the armed journey record to an outgoing request
// and closes the requester-side stall window at the issue milestone.
func (l *L1) tagJourney(m *Message) {
	if l.journey == nil {
		return
	}
	m.Journey = l.journey
	l.journey.Issue(l.eng.Now())
}

// relayJourney carries an incoming tagged probe's journey onto the
// response it triggers and closes the remote-service window: the cycles
// between the probe's delivery and this send are attributed to the
// directory/owner service stage.
func (l *L1) relayJourney(resp, req *Message) {
	if req.Journey == nil {
		return
	}
	resp.Journey = req.Journey
	req.Journey.Remote(l.eng.Now())
}

// send wraps a pooled copy of m in a packet and injects it.
func (l *L1) send(m Message, dst noc.NodeID, priority int) {
	m.From = l.Node
	l.ni.Inject(packetFor(l.ni, l.msgs.New(m), dst, priority))
}

// hit completes a load or atomic that hit in the array: cb receives v
// after the hit latency.
func (l *L1) hit(cb func(uint64), v uint64) {
	if !l.hits.bound() {
		l.hits.bind(func(h hitResult) { h.cb(h.v) })
	}
	l.hits.push(l.eng, l.hitLatency-1, hitResult{cb, v})
}

// respPriority is the fixed arbitration priority of forward/response
// traffic under OCOR, keeping protocol completion ahead of new requests.
const respPriority = 100

// Load issues a read. cb fires with the value when the access completes.
// lock marks the access as part of a lock-acquire protocol for statistics;
// priority is the OCOR arbitration priority for any request packet sent.
func (l *L1) Load(addr uint64, lock bool, priority int, cb func(uint64)) {
	l.Stats.Loads++
	addr = l.arr.BlockAlign(addr)
	if line := l.arr.Lookup(addr); line != nil {
		l.Stats.Hits++
		l.hit(cb, line.Data)
		return
	}
	l.Stats.Misses++
	e := l.mshr.Allocate(addr)
	if e == nil {
		// One outstanding op per core keeps this unreachable in practice;
		// retry next cycle if a torture test ever gets here.
		l.eng.Schedule(0, func() { l.Load(addr, lock, priority, cb) })
		return
	}
	e.State = trIS
	e.Seq = l.nextSeq()
	e.Op = pendingOp{kind: opLoad, cb: cb, issued: l.eng.Now(), lock: lock}
	m := Message{Type: MsgGetS, Addr: addr, Requestor: l.Node, ToDir: true, LockAddr: lock, Seq: e.Seq}
	l.tagJourney(&m)
	l.send(m, l.homes.Home(addr), priority)
}

// Store issues a write. cb fires when the write is globally performed.
func (l *L1) Store(addr uint64, val uint64, lock bool, priority int, cb func()) {
	l.Stats.Stores++
	addr = l.arr.BlockAlign(addr)
	if line := l.arr.Lookup(addr); line != nil {
		switch line.State {
		case cache.Modified, cache.Exclusive:
			l.Stats.Hits++
			line.State = cache.Modified
			line.Data = val
			l.eng.Schedule(l.hitLatency-1, cb)
			return
		}
	}
	l.Stats.Misses++
	l.issueGetX(addr, pendingOp{kind: opStore, a: val, storeCB: cb, issued: l.eng.Now(), lock: lock}, false, priority)
}

// StoreRelease performs a synchronization store: the value is written
// through to the home node (the paper's Step 4 release), which recalls
// every cached copy of the line and acknowledges when the invalidation
// storm completes. The local copy is dropped — the released value lives
// at the home.
func (l *L1) StoreRelease(addr uint64, val uint64, lock bool, priority int, cb func()) {
	l.Stats.Stores++
	addr = l.arr.BlockAlign(addr)
	l.arr.Invalidate(addr)
	e := l.mshr.Allocate(addr)
	if e == nil {
		l.eng.Schedule(0, func() { l.StoreRelease(addr, val, lock, priority, cb) })
		return
	}
	e.State = trREL
	e.Seq = l.nextSeq()
	e.Op = pendingOp{kind: opStore, a: val, storeCB: cb, issued: l.eng.Now(), lock: lock}
	m := Message{Type: MsgPutRelease, Addr: addr, Requestor: l.Node, Data: val, ToDir: true, LockAddr: lock, Seq: e.Seq}
	l.tagJourney(&m)
	l.send(m, l.homes.Home(addr), priority)
}

// Atomic issues a read-modify-write. All atomics are lock operations: the
// GetX they issue is flagged LockAddr so big routers can key their barrier
// tables on it. cb fires with the pre-operation value.
func (l *L1) Atomic(addr uint64, op AtomicOp, a, b uint64, priority int, cb func(old uint64)) {
	l.Stats.Atomics++
	addr = l.arr.BlockAlign(addr)
	if line := l.arr.Lookup(addr); line != nil {
		switch line.State {
		case cache.Modified, cache.Exclusive:
			l.Stats.Hits++
			line.State = cache.Modified
			old := line.Data
			line.Data = applyAtomic(op, old, a, b)
			l.hit(cb, old)
			return
		}
	}
	l.Stats.Misses++
	l.issueGetX(addr, pendingOp{kind: opAtomic, atomic: op, a: a, b: b, cb: cb, issued: l.eng.Now(), lock: true}, true, priority)
}

// issueGetX allocates a transaction and sends the exclusive request.
func (l *L1) issueGetX(addr uint64, op pendingOp, lockAddr bool, priority int) {
	e := l.mshr.Allocate(addr)
	if e == nil {
		l.eng.Schedule(0, func() { l.issueGetX(addr, op, lockAddr, priority) })
		return
	}
	e.State = trIM
	e.Seq = l.nextSeq()
	e.Op = op
	m := Message{Type: MsgGetX, Addr: addr, Requestor: l.Node, ToDir: true, LockAddr: lockAddr, Seq: e.Seq}
	if op.kind == opAtomic && op.atomic == Swap {
		m.IsSwap = true
		m.Operand = op.a
	}
	l.tagJourney(&m)
	l.send(m, l.homes.Home(addr), priority)
}

// applyAtomic computes the post-operation value.
func applyAtomic(op AtomicOp, old, a, b uint64) uint64 {
	switch op {
	case Swap:
		return a
	case FetchAdd:
		return old + a
	case CompareSwap:
		if old == a {
			return b
		}
		return old
	}
	return old
}

// Receive handles a coherence message delivered to this L1, which consumes
// and releases it.
func (l *L1) Receive(now sim.Cycle, m *Message) {
	switch m.Type {
	case MsgData:
		l.onData(now, m)
	case MsgDataExcl:
		l.onDataExcl(now, m)
	case MsgAcksComplete:
		l.onAcksComplete(now, m)
	case MsgInv:
		l.onInv(now, m)
	case MsgFwdGetS:
		l.onFwdGetS(m)
	case MsgFwdGetX:
		l.onFwdGetX(m)
	case MsgLockProbe:
		l.onLockProbe(m)
	case MsgWBAck:
		delete(l.evict, m.Addr)
	case MsgReleaseAck:
		l.onReleaseAck(now, m)
	case MsgInvAck:
		// A stray relayed ack (its barrier expired mid-flight); harmless.
		l.Stats.StaleInvsIgnored++
	default:
		l.eng.Fail(&ProtocolError{Node: int(l.Node), Component: "l1",
			Detail: fmt.Sprintf("unexpected %v", m)})
		return
	}
	l.msgs.put(m, l.Node, "l1")
}

// onData completes a GetS transaction, or — for an outstanding SWAP — a
// failed-swap downgrade: the loser receives a valid shared copy whose
// value equals its operand, so the swap completes as a no-op returning
// the observed (occupied) value, exactly the paper's losing-thread flow.
func (l *L1) onData(now sim.Cycle, m *Message) {
	e := l.mshr.Get(m.Addr)
	if e == nil {
		return // stale response
	}
	if m.Seq != e.Seq {
		l.Stats.StaleResponsesIgnored++
		return // response to an earlier transaction on this address
	}
	op, seq := e.Op, e.Seq
	switch e.State {
	case trIS:
		if !e.Invalidated {
			st := cache.Shared
			if m.Excl {
				st = cache.Exclusive
			}
			l.insert(m.Addr, st, m.Data)
		}
		l.finishStall(now, &op)
		l.mshr.Free(m.Addr)
		if m.Excl {
			// Exclusive grants block the home until this unblock.
			l.send(Message{Type: MsgUnblock, Addr: m.Addr, Requestor: l.Node, ToDir: true, Seq: seq}, l.homes.Home(m.Addr), respPriority)
		}
		op.cb(m.Data)
	case trIM:
		if op.kind != opAtomic || op.atomic != Swap {
			l.eng.Fail(&ProtocolError{Node: int(l.Node), Component: "l1",
				Detail: fmt.Sprintf("shared data for non-swap exclusive request at %#x", m.Addr)})
			return
		}
		l.Stats.SwapsFailed++
		if !e.Invalidated {
			l.insert(m.Addr, cache.Shared, m.Data)
		}
		l.finishStall(now, &op)
		l.mshr.Free(m.Addr)
		op.cb(m.Data)
	}
}

// onDataExcl records arrival of data+ownership for a GetX transaction.
func (l *L1) onDataExcl(now sim.Cycle, m *Message) {
	e := l.mshr.Get(m.Addr)
	if e == nil || e.State != trIM {
		return
	}
	if m.Seq != e.Seq {
		l.Stats.StaleResponsesIgnored++
		return
	}
	e.DataReady = true
	e.PendingData = m.Data
	l.tryCompleteX(now, m.Addr, e)
}

// onAcksComplete records that the home collected every invalidation ack.
func (l *L1) onAcksComplete(now sim.Cycle, m *Message) {
	e := l.mshr.Get(m.Addr)
	if e == nil || e.State != trIM {
		return
	}
	if m.Seq != e.Seq {
		// A floating AcksComplete — e.g. from a lock-probe fast path whose
		// requester completed via a shared copy — must never satisfy a
		// later transaction's ack wait: consuming it would unblock the
		// home while it is still collecting invalidation acks and strand
		// the wait forever.
		l.Stats.StaleResponsesIgnored++
		return
	}
	e.AcksDone = true
	l.tryCompleteX(now, m.Addr, e)
}

// tryCompleteX finishes a GetX transaction once both the data and the
// ack-completion have arrived: the line becomes Modified, the pending
// operation executes atomically, the home is unblocked.
func (l *L1) tryCompleteX(now sim.Cycle, addr uint64, e *cache.MSHREntry[pendingOp]) {
	if !e.DataReady || !e.AcksDone {
		return
	}
	val := e.PendingData
	// A surviving local copy (upgrade path) is always current in an
	// invalidation protocol; prefer it over the (possibly stale when the
	// previous owner forwarded data directly) home value.
	if line := l.arr.Peek(addr); line != nil {
		val = line.Data
	}
	op, seq := e.Op, e.Seq
	old := val
	switch op.kind {
	case opStore:
		l.insert(addr, cache.Modified, op.a)
	case opAtomic:
		l.insert(addr, cache.Modified, applyAtomic(op.atomic, old, op.a, op.b))
	default:
		l.eng.Fail(&ProtocolError{Node: int(l.Node), Component: "l1",
			Detail: fmt.Sprintf("load operation bound to exclusive transaction at %#x", addr)})
		return
	}
	l.finishStall(now, &op)
	l.mshr.Free(addr)
	l.send(Message{Type: MsgUnblock, Addr: addr, Requestor: l.Node, ToDir: true, Seq: seq}, l.homes.Home(addr), respPriority)
	switch op.kind {
	case opStore:
		op.storeCB()
	case opAtomic:
		op.cb(old)
	}
}

// finishStall accounts outstanding-time statistics for a completed op. Every
// miss-path completion is liveness progress: a core whose transaction is
// stuck behind a dead link or a wedged home stops completing, which is what
// the watchdog watches for.
func (l *L1) finishStall(now sim.Cycle, op *pendingOp) {
	l.eng.NoteProgress()
	d := uint64(now - op.issued)
	l.Stats.TotalStallCycles += d
	if op.lock {
		l.Stats.LockStallCycles += d
	}
}

// insert fills the line, sending a writeback for any dirty victim.
func (l *L1) insert(addr uint64, st cache.State, data uint64) {
	_, ev, ok := l.arr.Insert(addr, st, data)
	if !ok {
		return
	}
	switch ev.State {
	case cache.Modified, cache.Owned, cache.Exclusive:
		l.Stats.WritebacksSent++
		if l.evict == nil {
			l.evict = make(map[uint64]uint64)
		}
		l.evict[ev.Addr] = ev.Data
		l.send(Message{Type: MsgPutM, Addr: ev.Addr, Requestor: l.Node, Data: ev.Data, ToDir: true}, l.homes.Home(ev.Addr), respPriority)
	}
}

// onInv invalidates a shared copy and acknowledges to m.AckTo. Invalidation
// of an owned (M/E/O) line can only be a stale early invalidation that
// raced with this node winning the line; it is acknowledged but ignored.
func (l *L1) onInv(now sim.Cycle, m *Message) {
	l.Stats.InvsReceived++
	if e := l.mshr.Get(m.Addr); e != nil {
		// The invalidation raced with an in-flight fill: the shared copy
		// about to arrive is already stale and must not be installed.
		e.Invalidated = true
	}
	if line := l.arr.Peek(m.Addr); line != nil {
		switch {
		case m.Recall:
			// A release write-through supersedes any cached copy,
			// including dirty ones.
			line.State = cache.Invalid
		case line.State == cache.Shared:
			line.State = cache.Invalid
		default:
			l.Stats.StaleInvsIgnored++
		}
	}
	l.sendInvAck(m)
}

// onReleaseAck completes a synchronization store: the home holds the
// released value and every stale copy has been recalled.
func (l *L1) onReleaseAck(now sim.Cycle, m *Message) {
	e := l.mshr.Get(m.Addr)
	if e == nil || e.State != trREL {
		return
	}
	if m.Seq != e.Seq {
		l.Stats.StaleResponsesIgnored++
		return
	}
	op := e.Op
	l.finishStall(now, &op)
	l.mshr.Free(m.Addr)
	op.storeCB()
}

// sendInvAck acknowledges an invalidation to whoever generated it.
func (l *L1) sendInvAck(m *Message) {
	l.send(Message{Type: MsgInvAck, Addr: m.Addr, AckFor: l.Node, EarlyInv: m.EarlyInv, ToDir: !m.EarlyInv, Token: m.Token}, m.AckTo, respPriority)
}

// onFwdGetS services a read on a line this node owns: send a shared copy
// to the requester, downgrade to Shared and copy the dirty value back to
// the home so it can answer subsequent readers directly.
func (l *L1) onFwdGetS(m *Message) {
	data, ok := l.lineOrEvictData(m.Addr)
	if !ok {
		// Lost the line entirely (should not happen under a blocking
		// directory); fall back to letting the home's value stand.
		data = m.Data
	}
	if line := l.arr.Peek(m.Addr); line != nil {
		line.State = cache.Shared
	}
	resp := Message{Type: MsgData, Addr: m.Addr, Data: data, Requestor: m.Requestor, Peek: m.LockAddr, Seq: m.Seq}
	l.relayJourney(&resp, m)
	l.send(resp, m.Requestor, respPriority)
	l.send(Message{Type: MsgCopyBack, Addr: m.Addr, Data: data, Requestor: m.Requestor, ToDir: true, Seq: m.Seq}, l.homes.Home(m.Addr), respPriority)
}

// onLockProbe arbitrates a losing SWAP at the owner: if the swap would be
// a no-op (the lock is occupied with the very value the loser is writing),
// the owner downgrades to Shared, serves the loser a valid copy directly
// and copies the value back to the home, which unblocks the line and
// fast-fails subsequent losers itself; if the lock state changed, the
// owner yields ownership and the requester completes like a plain GetX.
func (l *L1) onLockProbe(m *Message) {
	home := l.homes.Home(m.Addr)
	data, ok := l.lineOrEvictData(m.Addr)
	if ok && data == m.Operand {
		l.Stats.ProbesServed++
		if line := l.arr.Peek(m.Addr); line != nil {
			line.State = cache.Shared
		}
		resp := Message{Type: MsgData, Addr: m.Addr, Data: data, Requestor: m.Requestor, Peek: true, Seq: m.Seq}
		l.relayJourney(&resp, m)
		l.send(resp, m.Requestor, respPriority)
		l.send(Message{Type: MsgCopyBack, Addr: m.Addr, Data: data, Requestor: m.Requestor, ToDir: true, Seq: m.Seq}, home, respPriority)
		return
	}
	l.Stats.ProbesFailed++
	if !ok {
		data = m.Data
	}
	l.arr.Invalidate(m.Addr)
	resp := Message{Type: MsgDataExcl, Addr: m.Addr, Data: data, Requestor: m.Requestor, Peek: m.LockAddr, Seq: m.Seq}
	l.relayJourney(&resp, m)
	l.send(resp, m.Requestor, respPriority)
}

// onFwdGetX yields ownership: send data+ownership to the requester and
// drop the local copy.
func (l *L1) onFwdGetX(m *Message) {
	data, ok := l.lineOrEvictData(m.Addr)
	if !ok {
		data = m.Data
	}
	l.arr.Invalidate(m.Addr)
	resp := Message{Type: MsgDataExcl, Addr: m.Addr, Data: data, Requestor: m.Requestor, Peek: m.LockAddr, Seq: m.Seq}
	l.relayJourney(&resp, m)
	l.send(resp, m.Requestor, respPriority)
}

// lineOrEvictData fetches the current value from the live line or the
// writeback buffer.
func (l *L1) lineOrEvictData(addr uint64) (uint64, bool) {
	if line := l.arr.Peek(addr); line != nil {
		return line.Data, true
	}
	if v, ok := l.evict[addr]; ok {
		return v, true
	}
	return 0, false
}
