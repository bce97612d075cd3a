package lock

import (
	"inpg/internal/coherence"
	"inpg/internal/cpu"
	"inpg/internal/noc"
)

// clh is the Craig/Landin-Hagersten queue lock, included as an extension
// beyond the paper's five primitives: like MCS it spins on a per-thread
// location, but each waiter spins on its *predecessor's* node rather than
// its own, so no successor pointer (and no release-side spin) is needed.
// It rounds out the queue-lock family for cross-primitive studies: a
// predecessor-spinning counterpart to MCS's successor-signalling.
//
// Queue node encoding: each thread owns a rotating pair of flag lines
// (a node is "busy" while its owner waits or holds). The global tail
// pointer holds (threadID+1)<<1 | nodeIndex so 0 still means nil.
type clh struct {
	tail    uint64
	nodes   [][2]uint64 // two flag lines per thread (reuse-safe rotation)
	cur     []int       // which of the two nodes the thread is using
	pred    []uint64    // predecessor node address captured at acquire
	cfg     Config
	waiters []*clhWaiter
}

// clhWaiter is one thread's acquire continuations.
type clhWaiter struct {
	done             func()
	busy, poll       func()
	enqueued, polled func(uint64)
}

func newCLH(alloc *AddrAlloc, home noc.NodeID, cfg Config) *clh {
	l := &clh{
		tail: alloc.BlockAt(home),
		cur:  make([]int, cfg.Threads),
		pred: make([]uint64, cfg.Threads),
		cfg:  cfg,
	}
	for i := 0; i < cfg.Threads; i++ {
		l.nodes = append(l.nodes, [2]uint64{alloc.Block(), alloc.Block()})
	}
	return l
}

// encode packs a thread's current node into the tail word.
func (l *clh) encode(id int) uint64 { return uint64(id+1)<<1 | uint64(l.cur[id]) }

// nodeAddr resolves a tail encoding to its flag line.
func (l *clh) nodeAddr(enc uint64) uint64 {
	id := int(enc>>1) - 1
	return l.nodes[id][enc&1]
}

// Acquire implements cpu.Lock: mark my node busy, swap myself into the
// tail, and spin on the predecessor's node until it clears.
func (l *clh) Acquire(t *cpu.Thread, done func()) {
	me := t.ID
	w := waiter(&l.waiters, t, l.cfg.Threads, l.bind)
	w.done = done
	myNode := l.nodes[me][l.cur[me]]
	t.Port.Store(myNode, 1, true, t.LockPrio(), w.busy)
}

// bind builds t's acquire continuations.
func (l *clh) bind(t *cpu.Thread) *clhWaiter {
	me := t.ID
	w := &clhWaiter{}
	w.busy = func() {
		t.Port.Atomic(l.tail, coherence.Swap, l.encode(me), 0, t.LockPrio(), w.enqueued)
	}
	w.enqueued = func(prev uint64) {
		if prev == 0 {
			w.done() // queue was empty
			return
		}
		l.pred[me] = l.nodeAddr(prev)
		w.poll()
	}
	w.poll = func() { t.Port.Load(l.pred[me], true, t.LockPrio(), w.polled) }
	w.polled = func(v uint64) {
		if v == 0 {
			w.done()
			return
		}
		spinAgain(t, l.cfg, w.poll)
	}
	return w
}

// Release implements cpu.Lock: clear my node (waking my successor) and
// rotate to the spare node so the cleared one can be observed safely.
func (l *clh) Release(t *cpu.Thread, done func()) {
	me := t.ID
	myNode := l.nodes[me][l.cur[me]]
	l.cur[me] ^= 1
	t.Port.StoreRelease(myNode, 0, true, releasePrio(t), done)
}
