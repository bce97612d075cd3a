package coherence

import (
	"fmt"
	"sort"

	"inpg/internal/sim"
)

// DirLineDiag is a snapshot of one in-progress directory line, taken when
// the liveness watchdog trips.
type DirLineDiag struct {
	Home    int
	Addr    uint64
	Busy    bool
	Fetch   bool
	Cur     string // active transaction ("-" when idle)
	Waiting int    // invalidation acks outstanding
	Queued  int    // requests queued behind the active transaction
	State   string // full DebugLine rendering
}

func (d DirLineDiag) String() string {
	return fmt.Sprintf("dir %d line %#x: busy=%v fetch=%v cur=%s waiting=%d queued=%d [%s]",
		d.Home, d.Addr, d.Busy, d.Fetch, d.Cur, d.Waiting, d.Queued, d.State)
}

// Diagnostics returns the directory's unfinished business: every line that
// is mid-transaction, fetching from memory, waiting on acks or holding
// queued requests, in ascending address order.
func (d *Dir) Diagnostics() []DirLineDiag {
	addrs := make([]uint64, 0, len(d.lines))
	for a, ln := range d.lines {
		if ln.busy || ln.fetching || !ln.waiting.empty() || len(ln.pending) > 0 {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	out := make([]DirLineDiag, 0, len(addrs))
	for _, a := range addrs {
		ln := d.lines[a]
		cur := "-"
		if ln.cur != nil {
			cur = ln.cur.String()
		}
		out = append(out, DirLineDiag{
			Home:    int(d.Node),
			Addr:    a,
			Busy:    ln.busy,
			Fetch:   ln.fetching,
			Cur:     cur,
			Waiting: ln.waiting.len(),
			Queued:  len(ln.pending),
			State:   d.DebugLine(a),
		})
	}
	return out
}

// MSHRDiag is a snapshot of one outstanding L1 transaction.
type MSHRDiag struct {
	Node  int
	Addr  uint64
	State string    // transient protocol state: IS, IM or REL
	Age   sim.Cycle // cycles since the CPU op was issued
	Lock  bool      // part of a lock-acquire protocol
}

func (d MSHRDiag) String() string {
	s := fmt.Sprintf("l1 %d mshr %#x: state %s, outstanding %d cycles", d.Node, d.Addr, d.State, d.Age)
	if d.Lock {
		s += " (lock op)"
	}
	return s
}

// trStateName names a transient protocol state.
func trStateName(s int) string {
	switch s {
	case trIS:
		return "IS"
	case trIM:
		return "IM"
	case trREL:
		return "REL"
	}
	return fmt.Sprintf("tr(%d)", s)
}

// Diagnostics returns this L1's outstanding transactions in ascending
// address order.
func (l *L1) Diagnostics(now sim.Cycle) []MSHRDiag {
	entries := l.mshr.Entries()
	out := make([]MSHRDiag, 0, len(entries))
	for _, e := range entries {
		out = append(out, MSHRDiag{Node: int(l.Node), Addr: e.Addr, State: trStateName(e.State),
			Age: now - e.Op.issued, Lock: e.Op.lock})
	}
	return out
}

// Diagnostics collects the unfinished protocol state across every
// controller: directory lines mid-transaction and outstanding L1 MSHRs, in
// deterministic node order.
func (f *Fabric) Diagnostics(now sim.Cycle) (dirs []DirLineDiag, mshrs []MSHRDiag) {
	for _, d := range f.Dirs {
		dirs = append(dirs, d.Diagnostics()...)
	}
	for _, l := range f.L1s {
		mshrs = append(mshrs, l.Diagnostics(now)...)
	}
	return dirs, mshrs
}
