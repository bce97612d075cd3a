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
)

// metricsLock decorates the lock with handoff- and hold-latency
// measurement: the cycles between one thread's release and the next
// thread's acquire completion (the lock handoff — the quantity iNPG's
// early invalidations attack), and the cycles each holder kept the lock.
// Like tracingLock it adds no simulated time and consumes no randomness,
// so a metered run is cycle-identical to an unmetered one.
type metricsLock struct {
	inner cpu.Lock
	eng   *sim.Engine

	hold    *stats.Histogram
	handoff *stats.Histogram

	acquiredAt  []sim.Cycle // per thread ID
	lastRelease sim.Cycle
	haveRelease bool
}

func (l *metricsLock) Name() string { return l.inner.Name() }

func (l *metricsLock) Acquire(t *cpu.Thread, done func()) {
	l.inner.Acquire(t, func() {
		now := l.eng.Now()
		if l.haveRelease {
			l.handoff.Add(uint64(now - l.lastRelease))
			l.haveRelease = false
		}
		if t.ID < len(l.acquiredAt) {
			l.acquiredAt[t.ID] = now
		}
		done()
	})
}

func (l *metricsLock) Release(t *cpu.Thread, done func()) {
	now := l.eng.Now()
	if t.ID < len(l.acquiredAt) {
		l.hold.Add(uint64(now - l.acquiredAt[t.ID]))
	}
	l.lastRelease = now
	l.haveRelease = true
	l.inner.Release(t, done)
}

// journeyLock decorates the lock with causal journey tracing: each
// acquisition the keyed-hash sampler selects gets a journey record armed
// on the thread's L1 for the duration of the acquire, so every request
// the acquire issues — and every response, probe and completion ack the
// network and the home send on its behalf — attributes its cycles to a
// typed stage. Like metricsLock the decorator adds no simulated time and
// consumes no randomness; an unsampled (or rate-0) run is cycle- and
// byte-identical to one without the decorator installed.
type journeyLock struct {
	inner cpu.Lock
	eng   *sim.Engine
	l1s   []*coherence.L1
	rec   *journey.Recorder
	rate  float64
	seed  int64

	// active holds each thread's in-flight sampled record; nil while the
	// thread's current acquisition is unsampled (or none is in flight).
	active []*journey.Record
}

func (l *journeyLock) Name() string { return l.inner.Name() }

func (l *journeyLock) Acquire(t *cpu.Thread, done func()) {
	if t.ID < len(l.active) && journey.Sampled(l.seed, t.ID, uint64(t.AcquireCount), l.rate) {
		r := &journey.Record{Thread: t.ID, Acquire: uint64(t.AcquireCount)}
		r.Begin(l.eng.Now())
		l.active[t.ID] = r
		l.l1s[t.ID].SetJourney(r)
	}
	l.inner.Acquire(t, func() {
		if t.ID < len(l.active) {
			if r := l.active[t.ID]; r != nil {
				// Disarm before the thread proceeds into its critical
				// section: CS and release traffic belongs to no journey.
				// Tagged packets still in flight (a floating eager ack)
				// no-op against the finished record.
				l.active[t.ID] = nil
				l.l1s[t.ID].SetJourney(nil)
				r.Finish(l.eng.Now())
				l.rec.Finish(r)
			}
		}
		done()
	})
}

func (l *journeyLock) Release(t *cpu.Thread, done func()) { l.inner.Release(t, done) }

// buildMetrics constructs the telemetry registry and registers every
// subsystem's instruments: reader closures over the plain Stats structs
// the components already maintain, so nothing on the simulation hot path
// changes — disabled metrics cost literally nothing, enabled metrics cost
// only snapshot/sample-time reads.
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
	reg.Counter("noc.flits_switched", sumRouters(func(st *noc.RouterStats) uint64 { return st.FlitsSwitched }))
	reg.Counter("noc.vc_stalls", sumRouters(func(st *noc.RouterStats) uint64 { return st.VCStalls }))
	reg.Counter("noc.packets_seen", sumRouters(func(st *noc.RouterStats) uint64 { return st.PacketsSeen }))
	reg.Counter("noc.packets_consumed", sumRouters(func(st *noc.RouterStats) uint64 { return st.PacketsConsumed }))
	reg.Counter("noc.link_retries", sumRouters(func(st *noc.RouterStats) uint64 { return st.LinkRetries }))
	reg.Counter("noc.link_failures", sumRouters(func(st *noc.RouterStats) uint64 { return st.LinkFailures }))
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
	reg.Counter("fault.port_stalls", func() uint64 { return net.FaultStats().PortStallHits })

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
	reg.Counter("inpg.early_invs", func() uint64 {
		var v uint64
		for _, g := range gens {
			v += g.Stats.EarlyInvsSent
		}
		return v
	})
	reg.Counter("inpg.getx_stopped", func() uint64 {
		var v uint64
		for _, g := range gens {
			v += g.Stats.GetXStopped
		}
		return v
	})
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

	// Threads.
	threads := s.threads
	reg.Counter("cpu.cs_completed", func() uint64 {
		var v uint64
		for _, th := range threads {
			v += uint64(th.CSCompleted)
		}
		return v
	})
	reg.Counter("cpu.sleeps", func() uint64 {
		var v uint64
		for _, th := range threads {
			v += uint64(th.SleepCount)
		}
		return v
	})

	// Histograms: invalidation round trips (Figure 10's instrument) and
	// the lock hold/handoff latencies measured by metricsLock.
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
