package inpg

import (
	"fmt"

	"inpg/internal/coherence"
	"inpg/internal/cpu"
	"inpg/internal/journey"
	"inpg/internal/metrics"
	"inpg/internal/noc"
	"inpg/internal/sim"
	"inpg/internal/stats"
	"inpg/internal/trace"
)

// lockObserver builds the sinks cfg observes the locks with — the
// protocol trace buffer, the hold/handoff ledger and the journey
// recorder — and returns the decorator New wraps around each lock before
// the lock set is built: an observedLock when any sink is on, else the
// identity.
func (s *System) lockObserver(threads int) func(cpu.Lock) cpu.Lock {
	cfg := s.cfg
	if cfg.TraceCapacity > 0 {
		s.tracer = trace.New(cfg.TraceCapacity)
		s.tracer.AddrFilter = cfg.TraceAddr
	}
	if cfg.Metrics {
		s.lockHold = stats.NewHistogram(16)
		s.lockHandoff = stats.NewHistogram(16)
		s.acquiredAt = make([]sim.Cycle, threads)
	}
	if cfg.JourneyRate > 0 {
		s.journeys = journey.NewRecorder(0)
		s.journeyE2E = stats.NewHistogram(16)
		for i := range s.journeyStage {
			s.journeyStage[i] = stats.NewHistogram(16)
		}
		e2e, stages := s.journeyE2E, s.journeyStage
		s.journeys.OnFinish = func(r *journey.Record) {
			e2e.Add(r.E2E())
			for st, v := range r.Stages {
				stages[st].Add(v)
			}
		}
	}
	if s.tracer == nil && s.acquiredAt == nil && s.journeys == nil {
		return func(l cpu.Lock) cpu.Lock { return l }
	}
	return func(l cpu.Lock) cpu.Lock { return &observedLock{inner: l, s: s} }
}

// observedLock decorates one lock with everything a run observes of it,
// each part on only while its sink on the System is:
//
//   - the protocol trace's acquire and release events;
//   - the hold/handoff ledger: the cycles each holder kept the lock, from
//     its acquire stamp on the System, and the lock handoff — the cycles
//     between a release and the next acquire completion of the same lock,
//     the quantity iNPG's early invalidations attack. A release with no
//     waiter counts the idle gap until the lock's next acquire. Under
//     LockCount > 1 every lock has its own decorator, and all feed the
//     same two histograms;
//   - causal journeys: an acquire the keyed-hash sampler selects gets a
//     journey record armed on the thread's L1 from the Acquire call to its
//     completion, so every request the acquire issues — and every
//     response, probe and completion ack the network and the home send
//     on its behalf — attributes its cycles to a typed stage.
//
// The decorator adds no simulated time and consumes no randomness, so an
// observed run is cycle-identical to an unobserved one.
type observedLock struct {
	inner cpu.Lock
	s     *System

	lastRelease sim.Cycle
	released    bool // lastRelease awaits the lock's next acquire
}

func (l *observedLock) Acquire(t *cpu.Thread, done func()) {
	s := l.s
	var r *journey.Record
	if s.journeys != nil && journey.Sampled(s.cfg.Seed, t.ID, uint64(t.AcquireCount), s.cfg.JourneyRate) {
		r = &journey.Record{Thread: t.ID, Acquire: uint64(t.AcquireCount)}
		r.Begin(s.eng.Now())
		s.fab.L1s[t.ID].SetJourney(r)
	}
	l.inner.Acquire(t, func() {
		now := s.eng.Now()
		if s.acquiredAt != nil {
			if l.released {
				s.lockHandoff.Add(uint64(now - l.lastRelease))
				l.released = false
			}
			s.acquiredAt[t.ID] = now
		}
		if s.tracer != nil {
			s.tracer.Add(trace.Event{Cycle: now, Kind: trace.LockAcquire,
				Node: noc.NodeID(t.ID), Src: noc.NodeID(t.ID), Addr: s.tracer.AddrFilter,
				Detail: "thread holds the lock"})
		}
		if r != nil {
			// Disarm before the thread proceeds into its critical
			// section: CS and release traffic belongs to no journey.
			// Tagged packets still in flight (a floating eager ack)
			// no-op against the finished record.
			s.fab.L1s[t.ID].SetJourney(nil)
			r.Finish(now)
			s.journeys.Finish(r)
		}
		done()
	})
}

func (l *observedLock) Release(t *cpu.Thread, done func()) {
	s := l.s
	now := s.eng.Now()
	if s.tracer != nil {
		s.tracer.Add(trace.Event{Cycle: now, Kind: trace.LockRelease,
			Node: noc.NodeID(t.ID), Src: noc.NodeID(t.ID), Addr: s.tracer.AddrFilter,
			Detail: "thread releases the lock"})
	}
	if s.acquiredAt != nil {
		s.lockHold.Add(uint64(now - s.acquiredAt[t.ID]))
		l.lastRelease, l.released = now, true
	}
	l.inner.Release(t, done)
}

// buildMetrics constructs the telemetry registry and registers every
// subsystem's instruments: reader closures over the plain Stats structs
// the components already maintain, so nothing on the simulation hot path
// changes — disabled metrics cost literally nothing, enabled metrics cost
// only snapshot/sample-time reads. Totals the run's Results carry (flits
// switched, link retries and failures, port stalls, early invalidations,
// stopped GetX, critical sections, sleeps) are not registered again: a
// metered manifest keeps each once, in its summary.
func (s *System) buildMetrics() {
	reg := metrics.NewRegistry()
	s.reg = reg
	eng := s.eng
	net := s.fab.Net
	nodes := s.fab.Homes.Nodes

	// Engine. The awake-ticker count is deliberately NOT registered: in
	// always-tick compat mode Sleep is a no-op, so that gauge measures the
	// scheduler mode rather than the workload and would break the
	// snapshot's byte-identity across -compat runs.
	reg.Gauge("sim.pending_events", func() uint64 { return uint64(eng.PendingEvents()) })

	// NoC: chip-wide aggregates plus one flit counter per router, the
	// per-link view of switching activity.
	sumRouters := func(f func(*noc.RouterStats) uint64) metrics.Reader {
		return func() uint64 {
			var v uint64
			for id := 0; id < nodes; id++ {
				v += f(&net.Router(noc.NodeID(id)).Stats)
			}
			return v
		}
	}
	reg.Counter("noc.vc_stalls", sumRouters(func(st *noc.RouterStats) uint64 { return st.VCStalls }))
	reg.Counter("noc.packets_seen", sumRouters(func(st *noc.RouterStats) uint64 { return st.PacketsSeen }))
	reg.Counter("noc.packets_consumed", sumRouters(func(st *noc.RouterStats) uint64 { return st.PacketsConsumed }))
	for id := 0; id < nodes; id++ {
		rt := net.Router(noc.NodeID(id))
		reg.Counter(fmt.Sprintf("noc.router.%03d.flits", id), func() uint64 { return rt.Stats.FlitsSwitched })
	}
	reg.Counter("noc.injected", func() uint64 {
		var v uint64
		for id := 0; id < nodes; id++ {
			v += net.NI(noc.NodeID(id)).Injected
		}
		return v
	})
	reg.Counter("noc.delivered", func() uint64 {
		var v uint64
		for id := 0; id < nodes; id++ {
			v += net.NI(noc.NodeID(id)).Delivered
		}
		return v
	})
	reg.Counter("noc.latency_cycles", func() uint64 {
		var v uint64
		for id := 0; id < nodes; id++ {
			v += net.NI(noc.NodeID(id)).TotalCycles
		}
		return v
	})

	// Fault layer (all zero on fault-free runs).
	reg.Counter("fault.flits_dropped", func() uint64 { return net.FaultStats().FlitsDropped })
	reg.Counter("fault.flits_corrupted", func() uint64 { return net.FaultStats().FlitsCorrupted })

	// L1 controllers and their MSHR files.
	l1s := s.fab.L1s
	sumL1 := func(f func(*coherence.L1Stats) uint64) metrics.Reader {
		return func() uint64 {
			var v uint64
			for _, l1 := range l1s {
				v += f(&l1.Stats)
			}
			return v
		}
	}
	reg.Counter("l1.loads", sumL1(func(st *coherence.L1Stats) uint64 { return st.Loads }))
	reg.Counter("l1.stores", sumL1(func(st *coherence.L1Stats) uint64 { return st.Stores }))
	reg.Counter("l1.atomics", sumL1(func(st *coherence.L1Stats) uint64 { return st.Atomics }))
	reg.Counter("l1.hits", sumL1(func(st *coherence.L1Stats) uint64 { return st.Hits }))
	reg.Counter("l1.misses", sumL1(func(st *coherence.L1Stats) uint64 { return st.Misses }))
	reg.Counter("l1.invs_received", sumL1(func(st *coherence.L1Stats) uint64 { return st.InvsReceived }))
	reg.Counter("l1.writebacks", sumL1(func(st *coherence.L1Stats) uint64 { return st.WritebacksSent }))
	reg.Counter("l1.lock_stall_cycles", sumL1(func(st *coherence.L1Stats) uint64 { return st.LockStallCycles }))
	reg.Counter("l1.stall_cycles", sumL1(func(st *coherence.L1Stats) uint64 { return st.TotalStallCycles }))
	reg.Gauge("l1.mshr_occupancy", func() uint64 {
		var v uint64
		for _, l1 := range l1s {
			v += uint64(l1.MSHR().Len())
		}
		return v
	})
	reg.Gauge("l1.mshr_peak", func() uint64 {
		var v uint64
		for _, l1 := range l1s {
			if p := uint64(l1.MSHR().Peak()); p > v {
				v = p
			}
		}
		return v
	})
	reg.Counter("l1.mshr_allocs", func() uint64 {
		var v uint64
		for _, l1 := range l1s {
			v += l1.MSHR().Allocs()
		}
		return v
	})
	reg.Counter("l1.mshr_rejects", func() uint64 {
		var v uint64
		for _, l1 := range l1s {
			v += l1.MSHR().Rejects()
		}
		return v
	})

	// Directory controllers.
	dirs := s.fab.Dirs
	sumDir := func(f func(*coherence.DirStats) uint64) metrics.Reader {
		return func() uint64 {
			var v uint64
			for _, d := range dirs {
				v += f(&d.Stats)
			}
			return v
		}
	}
	reg.Counter("dir.txn_started", sumDir(func(st *coherence.DirStats) uint64 { return st.TxnStarted }))
	reg.Counter("dir.txn_ended", sumDir(func(st *coherence.DirStats) uint64 { return st.TxnEnded }))
	reg.Counter("dir.gets", sumDir(func(st *coherence.DirStats) uint64 { return st.GetS }))
	reg.Counter("dir.getx", sumDir(func(st *coherence.DirStats) uint64 { return st.GetX }))
	reg.Counter("dir.invs_sent", sumDir(func(st *coherence.DirStats) uint64 { return st.InvsSent }))
	reg.Counter("dir.mem_fetches", sumDir(func(st *coherence.DirStats) uint64 { return st.MemFetches }))
	reg.Counter("dir.queued_requests", sumDir(func(st *coherence.DirStats) uint64 { return st.QueuedRequests }))
	reg.Counter("dir.early_fwd_getx", sumDir(func(st *coherence.DirStats) uint64 { return st.EarlyFwdGetX }))
	reg.Counter("dir.early_inv_skipped", sumDir(func(st *coherence.DirStats) uint64 { return st.EarlyInvSkipped }))
	reg.Counter("dir.relayed_ack_hits", sumDir(func(st *coherence.DirStats) uint64 { return st.RelayedAckHits }))

	// Memory controllers.
	mems := s.fab.Mem.Controllers()
	reg.Counter("mem.reads", func() uint64 {
		var v uint64
		for _, c := range mems {
			v += c.Reads
		}
		return v
	})
	reg.Gauge("mem.queued_peak", func() uint64 {
		var v uint64
		for _, c := range mems {
			if p := uint64(c.QueuedPeak); p > v {
				v = p
			}
		}
		return v
	})

	// Big routers (all zero under Original/OCOR).
	gens := s.gens
	reg.Counter("inpg.acks_relayed", func() uint64 {
		var v uint64
		for _, g := range gens {
			v += g.Stats.AcksRelayed
		}
		return v
	})
	reg.Counter("inpg.barriers_created", func() uint64 {
		var v uint64
		for _, g := range gens {
			v += g.Stats.BarriersCreated
		}
		return v
	})
	reg.Counter("inpg.barriers_expired", func() uint64 {
		var v uint64
		for _, g := range gens {
			v += g.Stats.BarriersExpired
		}
		return v
	})

	// Histograms: invalidation round trips (Figure 10's instrument) and
	// the lock hold/handoff latencies measured by observedLock.
	reg.Histogram("rtt", s.rtt.Hist)
	if s.lockHold != nil {
		reg.Histogram("lock.hold_cycles", s.lockHold)
		reg.Histogram("lock.handoff_cycles", s.lockHandoff)
	}

	// Journey tracing (registered only when sampling is armed, so a rate-0
	// snapshot stays byte-identical to one taken before the journey
	// subsystem existed).
	if s.journeys != nil {
		rec := s.journeys
		reg.Counter("journey.completed", func() uint64 { return rec.Completed })
		reg.Counter("journey.intercepted", func() uint64 { return rec.InterceptedCount })
		reg.Counter("journey.dropped", func() uint64 { return rec.Dropped })
		reg.Histogram("journey.e2e_cycles", s.journeyE2E)
		for i, st := range journey.Stages {
			reg.Histogram("journey.stage."+st.String()+"_cycles", s.journeyStage[i])
		}
	}
}

// Metrics exposes the telemetry registry, or nil when Config.Metrics is
// off.
func (s *System) Metrics() *metrics.Registry { return s.reg }

// MetricsSampler exposes the periodic sampler, or nil when sampling is
// not configured.
func (s *System) MetricsSampler() *metrics.Sampler { return s.sampler }

// MetricsSnapshot reads every registered instrument at the current cycle.
// It returns nil when metrics are disabled.
func (s *System) MetricsSnapshot() *metrics.Snapshot {
	if s.reg == nil {
		return nil
	}
	snap := s.reg.Snapshot(uint64(s.eng.Now()))
	return &snap
}
