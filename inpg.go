// Package inpg is a full-system reproduction of "iNPG: Accelerating
// Critical Section Access with In-Network Packet Generation for NoC Based
// Many-Cores" (Yao & Lu, HPCA 2018).
//
// It assembles, from scratch and in pure Go, the substrate the paper
// evaluates on — a mesh NoC with virtual-channel wormhole routers, a
// directory-based MOESI coherence protocol over private L1s and a banked
// shared L2, memory controllers, and per-core threads executing five
// different locking primitives — plus the paper's two mechanisms: OCOR
// (priority-arbitration competition-overhead reduction, the ISCA'16
// baseline) and iNPG ("big" routers that generate early invalidation
// packets in-network).
//
// The typical entry point is Config → New → System.Run → Results:
//
//	cfg := inpg.DefaultConfig()
//	cfg.Mechanism = inpg.INPG
//	cfg.Lock = inpg.LockTAS
//	sys, err := inpg.New(cfg)
//	if err != nil { ... }
//	res, err := sys.Run()
//
// Results carries the paper's measured quantities: phase breakdowns
// (parallel / competition overhead / critical-section execution),
// lock-coherence-overhead share, invalidation round-trip statistics, and
// critical-section throughput. The regeneration harness for every figure
// of the paper lives in internal/experiments and is driven by
// cmd/inpgbench and the root benchmark suite.
package inpg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"inpg/internal/bigrouter"
	"inpg/internal/chipmodel"
	"inpg/internal/coherence"
	"inpg/internal/cpu"
	"inpg/internal/fault"
	"inpg/internal/journey"
	"inpg/internal/lock"
	"inpg/internal/metrics"
	"inpg/internal/noc"
	"inpg/internal/sim"
	"inpg/internal/stats"
	"inpg/internal/trace"
	"math/rand"
)

// Mechanism selects the comparative case of the evaluation (Section 5.1).
type Mechanism int

// The four comparative cases.
const (
	// Original is the unmodified baseline architecture.
	Original Mechanism = iota
	// OCOR adds remaining-times-of-retry priority arbitration in the NoC.
	OCOR
	// INPG deploys big routers performing in-network packet generation.
	INPG
	// INPGOCOR combines both mechanisms.
	INPGOCOR
)

// Mechanisms lists the four cases in presentation order.
var Mechanisms = []Mechanism{Original, OCOR, INPG, INPGOCOR}

// String names the mechanism as in the paper's figures.
func (m Mechanism) String() string {
	switch m {
	case Original:
		return "Original"
	case OCOR:
		return "OCOR"
	case INPG:
		return "iNPG"
	case INPGOCOR:
		return "iNPG+OCOR"
	}
	return fmt.Sprintf("Mechanism(%d)", int(m))
}

// ParseMechanism resolves a mechanism name.
func ParseMechanism(s string) (Mechanism, error) {
	for _, m := range Mechanisms {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("inpg: unknown mechanism %q", s)
}

// usesINPG reports whether big routers are deployed.
func (m Mechanism) usesINPG() bool { return m == INPG || m == INPGOCOR }

// usesOCOR reports whether priority arbitration is enabled.
func (m Mechanism) usesOCOR() bool { return m == OCOR || m == INPGOCOR }

// LockKind selects the locking primitive.
type LockKind int

// The five locking primitives (Section 2.1).
const (
	LockTAS LockKind = iota
	LockTTL
	LockABQL
	LockMCS
	LockQSL
	// LockCLH is an extension beyond the paper: the Craig/Landin-Hagersten
	// predecessor-spinning queue lock.
	LockCLH
)

// LockKinds lists the paper's primitives; LockCLH is an extension and is
// excluded from paper-reproduction sweeps.
var LockKinds = []LockKind{LockTAS, LockTTL, LockABQL, LockMCS, LockQSL}

// String names the primitive.
func (k LockKind) String() string { return lock.Kind(k).String() }

// ParseLockKind resolves a primitive name.
func ParseLockKind(s string) (LockKind, error) {
	k, err := lock.ParseKind(s)
	return LockKind(k), err
}

// Config describes one simulation. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// MeshWidth and MeshHeight size the 2D mesh (Table 1: 8×8).
	MeshWidth, MeshHeight int
	// Threads is the number of competing threads, one per core starting
	// at node 0. Zero means one thread on every core.
	Threads int

	Lock      LockKind
	Mechanism Mechanism

	// BigRouters is the number of deployed big routers for iNPG
	// mechanisms; -1 selects the paper's default of half the nodes.
	BigRouters int
	// BarrierEntries sizes the locking barrier table (lock barriers and
	// EI entries); 0 selects the default of 16.
	BarrierEntries int
	// BarrierTTL is the barrier time-to-live in cycles; 0 selects 128.
	BarrierTTL int

	// LockHomeNode pins the home L2 bank of the primary lock variable;
	// -1 selects the paper's Figure 10 position (core (5,6)) when it
	// exists, else the mesh center.
	LockHomeNode int

	// LockCount creates that many independent locks (homes spread across
	// the chip beyond the primary); each thread picks one uniformly per
	// critical section. Values ≤ 1 mean the single global lock of the
	// paper's hot-lock scenarios. Multiple concurrent locks are what
	// exercise the big routers' multi-entry barrier tables (Figure 15).
	LockCount int

	// Workload shape (per thread): CSPerThread critical sections of
	// CSCycles±CSJitter cycles separated by ParallelCycles±ParallelJitter
	// of parallel compute.
	CSPerThread    int
	CSCycles       int
	CSJitter       int
	ParallelCycles int
	ParallelJitter int

	// QSLRetries, CtxSwitchCycles and WakeupCycles tune the queue
	// spin-lock; zero selects defaults (128 / 600 / 300).
	QSLRetries      int
	CtxSwitchCycles int
	WakeupCycles    int

	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// MaxCycles bounds the simulation (deadlock watchdog).
	MaxCycles uint64

	// WallTimeBudget, when positive, bounds the run's host wall-clock time:
	// Run aborts with a *SimulationError wrapping a *sim.AbortError
	// (Diagnostics attached) once the budget elapses, checked
	// cooperatively every AbortCheckInterval cycles. Zero leaves wall
	// time unbounded. The budget reads host time, so it is the one
	// deliberately nondeterministic knob: it never fires on a run that
	// finishes in budget, leaving on-time runs byte-identical to
	// unbudgeted ones.
	WallTimeBudget time.Duration

	// RecordTimeline captures per-thread phase transitions for the first
	// TimelineThreads threads (Figure 9 profiles the first 8).
	RecordTimeline  bool
	TimelineThreads int

	// DisableAckOverlap turns off iNPG's ack-overlap optimization (a
	// relayed early ack satisfying a pending direct-invalidation wait);
	// used by the mechanism-component ablation.
	DisableAckOverlap bool

	// TraceCapacity, when positive, enables message-level protocol tracing
	// into a ring buffer of that many events (see internal/trace and
	// inpgsim -trace). TraceAddr restricts tracing to one block address
	// (0 traces everything).
	TraceCapacity int
	TraceAddr     uint64

	// Metrics enables the unified telemetry registry (internal/metrics):
	// named counters, gauges and cycle histograms over every subsystem,
	// read only at snapshot/sample time. Off — the default — the registry
	// is never built and the run is byte- and allocation-identical to a
	// metrics-free build; on, the instruments perturb nothing the
	// simulation can observe, so figure outputs stay byte-identical too.
	// A positive JourneyRate builds the registry too: the journey stage
	// histograms live in it.
	Metrics bool
	// MetricsSampleEvery, when positive (with Metrics on), samples every
	// registered scalar instrument into an in-run time series at this
	// cycle interval; the series feeds the Perfetto trace exporter's
	// counter tracks. Sampling is cycle-invisible to the simulation.
	MetricsSampleEvery int

	// Fault configures deterministic fault injection on mesh links and
	// router ports (package internal/fault): flit drops/corruptions
	// absorbed by link-level retransmission, and transient port stalls.
	// The zero value disables injection entirely and keeps runs
	// byte-identical to a fault-free build. Fault decisions are keyed by
	// Fault.Seed independently of Seed, and are deterministic for a given
	// (Seed, Fault.Seed) regardless of how many runner workers execute
	// sibling simulations.
	Fault fault.Config

	// WatchdogWindow arms the liveness watchdog: when no packet delivery,
	// directory transaction boundary, L1 miss completion or thread phase
	// change occurs for this many cycles, Run returns a *SimulationError
	// carrying a Diagnostics snapshot of the wedged state — long before
	// MaxCycles. 0 selects the default (DefaultWatchdogWindow); negative
	// disables the watchdog.
	WatchdogWindow int64

	// AlwaysTick disables the engine's activity-driven scheduling: every
	// router and NI ticks every cycle and idle stretches are stepped one
	// cycle at a time, the pre-optimization behaviour. Runs are
	// bit-identical either way (pinned by TestActivitySchedulingMatchesAlwaysTick);
	// the mode exists as the reference for that differential check and for
	// debugging suspected wake/sleep protocol violations.
	AlwaysTick bool

	// Shards selected the removed sharded tick pass. 0 and 1 run the
	// single-threaded engine; New rejects any other value. It is excluded
	// from the JSON encoding, so it never reaches digests or manifests.
	//
	// Deprecated: the sharded engine was removed; leave Shards at 0. Run
	// independent cells in parallel (runner workers, the fleet) instead.
	Shards int `json:"-"`

	// JourneyRate, when in (0, 1], samples that fraction of
	// critical-section acquisitions into causal lock-journey records
	// (internal/journey): per-stage latency attribution from the Acquire
	// call to its completion callback. Sampling decisions are a keyed hash
	// of (Seed, thread, acquire index) — no RNG — and the lock observer
	// that samples adds no simulated time, so sampled runs are
	// cycle-identical to unsampled ones (pinned by
	// TestJourneySamplingInvisible). It is an observability strategy, not
	// a simulation parameter, and is excluded from the JSON
	// encoding: the config digest and manifests must not distinguish runs
	// by whether someone was watching.
	JourneyRate float64 `json:"-"`
}

// Digest returns a short stable fingerprint of the configuration: the hex
// prefix of a SHA-256 over its canonical JSON encoding. Two configs digest
// equal exactly when every field (workload, seed, fault plan, budgets)
// matches, which is what sweep resume keys on.
func (c Config) Digest() string {
	data, err := json.Marshal(c)
	if err != nil {
		// Config is a plain struct of marshalable fields; this cannot
		// happen short of memory corruption.
		panic(fmt.Sprintf("inpg: config digest: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// DefaultConfig returns the paper's Table 1 platform with the Linux-4.2
// default queue spin-lock and a medium workload.
func DefaultConfig() Config {
	return Config{
		MeshWidth:      8,
		MeshHeight:     8,
		Lock:           LockQSL,
		Mechanism:      Original,
		BigRouters:     -1,
		LockHomeNode:   -1,
		CSPerThread:    8,
		CSCycles:       100,
		CSJitter:       30,
		ParallelCycles: 800,
		ParallelJitter: 200,
		Seed:           1,
		MaxCycles:      50_000_000,
	}
}

// System is one fully wired simulation instance.
type System struct {
	cfg      Config
	eng      *sim.Engine
	fab      *coherence.Fabric
	threads  []*cpu.Thread
	finished int // threads whose program has completed
	gens     []*bigrouter.Gen
	rtt      *stats.RTTCollector
	timeline *stats.Timeline
	tracer   *trace.Buffer

	// Telemetry (nil unless Config.Metrics): the instrument registry, the
	// optional periodic sampler, and the lock latency histograms the
	// observedLock decorators feed from each thread's acquire stamp.
	reg         *metrics.Registry
	sampler     *metrics.Sampler
	lockHold    *stats.Histogram
	lockHandoff *stats.Histogram
	acquiredAt  []sim.Cycle // per thread ID

	// Journey tracing (nil unless Config.JourneyRate > 0): the recorder
	// collecting finished journeys, plus the end-to-end and per-stage
	// cycle histograms fed from OnFinish.
	journeys     *journey.Recorder
	journeyE2E   *stats.Histogram
	journeyStage [journey.NumStages]*stats.Histogram
}

// lockSet multiplexes critical sections over several independent locks:
// each acquire picks one uniformly (per-thread deterministic RNG) and the
// matching release targets the same lock.
type lockSet struct {
	locks []cpu.Lock
	held  []cpu.Lock // per thread
}

func (l *lockSet) Acquire(t *cpu.Thread, done func()) {
	pick := l.locks[t.Rand().Intn(len(l.locks))]
	l.held[t.ID] = pick
	pick.Acquire(t, done)
}

func (l *lockSet) Release(t *cpu.Thread, done func()) {
	l.held[t.ID].Release(t, done)
}

// New builds a system from cfg.
func New(cfg Config) (*System, error) {
	if cfg.MeshWidth <= 0 || cfg.MeshHeight <= 0 {
		return nil, fmt.Errorf("inpg: invalid mesh %dx%d", cfg.MeshWidth, cfg.MeshHeight)
	}
	nodes := cfg.MeshWidth * cfg.MeshHeight
	threads := cfg.Threads
	if threads == 0 {
		threads = nodes
	}
	if threads > nodes {
		return nil, fmt.Errorf("inpg: %d threads exceed %d cores", threads, nodes)
	}
	if cfg.CSPerThread <= 0 {
		return nil, fmt.Errorf("inpg: CSPerThread must be positive")
	}
	if cfg.Shards < 0 || cfg.Shards > 1 {
		return nil, fmt.Errorf("inpg: Shards=%d: the sharded engine was removed; use 0 or 1", cfg.Shards)
	}

	if cfg.JourneyRate > 0 {
		// The journey stage histograms live in the telemetry registry.
		cfg.Metrics = true
	}

	eng := sim.NewEngine(cfg.Seed)
	eng.SetAlwaysTick(cfg.AlwaysTick)
	switch {
	case cfg.WatchdogWindow > 0:
		eng.SetWatchdog(sim.Cycle(cfg.WatchdogWindow))
	case cfg.WatchdogWindow == 0:
		eng.SetWatchdog(DefaultWatchdogWindow)
	}
	fcfg := coherence.DefaultFabricConfig()
	fcfg.Net.Mesh = noc.Mesh{Width: cfg.MeshWidth, Height: cfg.MeshHeight}
	fcfg.Net.PriorityArb = cfg.Mechanism.usesOCOR()
	fcfg.Net.Fault = cfg.Fault
	fcfg.Dir.DisableAckOverlap = cfg.DisableAckOverlap
	fab, err := coherence.NewFabric(eng, fcfg)
	if err != nil {
		return nil, err
	}

	s := &System{cfg: cfg, eng: eng, fab: fab, rtt: stats.NewRTTCollector()}
	fab.SetRTTRecorder(s.rtt)

	// Lock construction.
	lcfg := lock.DefaultConfig(threads)
	if cfg.QSLRetries > 0 {
		lcfg.QSLRetries = cfg.QSLRetries
	}
	if cfg.CtxSwitchCycles > 0 {
		lcfg.CtxSwitch = sim.Cycle(cfg.CtxSwitchCycles)
	}
	if cfg.WakeupCycles > 0 {
		lcfg.Wakeup = sim.Cycle(cfg.WakeupCycles)
	}
	home := noc.NodeID(cfg.LockHomeNode)
	if cfg.LockHomeNode < 0 {
		home = defaultLockHome(fab.Net.Mesh())
	}
	if int(home) >= nodes {
		return nil, fmt.Errorf("inpg: lock home node %d outside mesh", home)
	}
	alloc := lock.NewAddrAlloc(fab.Homes, fab.Mem)
	observe := s.lockObserver(threads)
	locks := make([]cpu.Lock, max(cfg.LockCount, 1))
	for i := range locks {
		h := home
		if i > 0 {
			h = noc.NodeID((int(home) + i*7) % nodes)
		}
		l, err := lock.New(lock.Kind(cfg.Lock), alloc, h, lcfg)
		if err != nil {
			return nil, err
		}
		locks[i] = observe(l)
	}
	lockImpl := locks[0]
	if len(locks) > 1 {
		lockImpl = &lockSet{locks: locks, held: make([]cpu.Lock, threads)}
	}

	// iNPG deployment.
	if cfg.Mechanism.usesINPG() {
		brCount := cfg.BigRouters
		if brCount < 0 {
			brCount = nodes / 2
		}
		bcfg := bigrouter.DefaultConfig()
		if cfg.BarrierEntries > 0 {
			bcfg.Barriers = cfg.BarrierEntries
			bcfg.EIEntries = cfg.BarrierEntries
		}
		if cfg.BarrierTTL > 0 {
			bcfg.TTL = sim.Cycle(cfg.BarrierTTL)
		}
		nodesList := bigrouter.Deployment(fab.Net.Mesh(), brCount)
		s.gens = bigrouter.Attach(fab, bcfg, nodesList)
		for _, g := range s.gens {
			g.SetRTTRecorder(s.rtt)
		}
	}

	// Protocol tracing: packets, big-router actions and link events join
	// the lock events the observers record.
	if s.tracer != nil {
		for id := 0; id < nodes; id++ {
			ni := fab.Net.NI(noc.NodeID(id))
			node := noc.NodeID(id)
			ni.OnInject = func(p *noc.Packet) {
				s.tracer.Add(trace.Event{Cycle: eng.Now(), Kind: trace.PktInject,
					Node: node, Src: p.Src, Dst: p.Dst, Addr: p.Addr, Detail: payloadName(p)})
			}
			ni.OnDeliver = func(p *noc.Packet) {
				s.tracer.Add(trace.Event{Cycle: eng.Now(), Kind: trace.PktDeliver,
					Node: node, Src: p.Src, Dst: p.Dst, Addr: p.Addr, Detail: payloadName(p)})
			}
		}
		for _, g := range s.gens {
			g.Tracer = s.tracer
		}
		// Link-layer events (fault-injected runs): retransmissions and
		// link deaths join the protocol trace through the network's
		// nil-checked hooks.
		fab.Net.OnLinkRetry = func(now sim.Cycle, at noc.NodeID, toward noc.Port, p *noc.Packet, attempt int) {
			s.tracer.Add(trace.Event{Cycle: now, Kind: trace.LinkRetry,
				Node: at, Src: p.Src, Dst: p.Dst, Addr: p.Addr,
				Detail: fmt.Sprintf("retry %d toward %v", attempt, toward)})
		}
		fab.Net.OnLinkDead = func(now sim.Cycle, at noc.NodeID, toward noc.Port, p *noc.Packet) {
			s.tracer.Add(trace.Event{Cycle: now, Kind: trace.LinkDead,
				Node: at, Src: p.Src, Dst: p.Dst, Addr: p.Addr,
				Detail: fmt.Sprintf("link toward %v declared dead", toward)})
		}
	}

	// Threads.
	if cfg.RecordTimeline {
		s.timeline = &stats.Timeline{MaxThread: cfg.TimelineThreads}
	}
	prog := cpu.Program{
		CSCount:        cfg.CSPerThread,
		CSCycles:       jitter(cfg.CSCycles, cfg.CSJitter),
		ParallelCycles: jitter(cfg.ParallelCycles, cfg.ParallelJitter),
	}
	onDone := func(*cpu.Thread) { s.finished++ }
	for i := 0; i < threads; i++ {
		th := cpu.New(eng, i, fab.L1s[i], lockImpl, prog, cfg.Seed+int64(i)*7919)
		th.OCOR = cfg.Mechanism.usesOCOR()
		th.QSLRetries = lcfg.QSLRetries
		if s.timeline != nil {
			th.PhaseHook = s.timeline.Hook()
		}
		th.SetOnDone(onDone)
		s.threads = append(s.threads, th)
	}
	if cfg.Metrics {
		s.buildMetrics()
		if cfg.MetricsSampleEvery > 0 {
			s.sampler = metrics.NewSampler(eng, s.reg, sim.Cycle(cfg.MetricsSampleEvery))
			s.sampler.Start()
		}
	}
	return s, nil
}

// PrimaryLockAddr returns the block address cfg's primary lock variable
// will be allocated at — the value to put in Config.TraceAddr to trace a
// run's main lock competition (inpgsim -trace and -trace-out).
func PrimaryLockAddr(cfg Config) uint64 {
	m := noc.Mesh{Width: cfg.MeshWidth, Height: cfg.MeshHeight}
	home := noc.NodeID(cfg.LockHomeNode)
	if cfg.LockHomeNode < 0 {
		home = defaultLockHome(m)
	}
	homes := coherence.HomeMap{
		Nodes:      m.Nodes(),
		BlockBytes: coherence.DefaultL1Config().Cache.BlockBytes,
	}
	return homes.AddrForHome(home, 0)
}

// AutoShards returns 1, the only shard count New accepts.
//
// Deprecated: the sharded engine was removed; Config.Shards needs no
// resolution.
func AutoShards(meshWidth, meshHeight int) int { return 1 }

// defaultLockHome picks the paper's Figure 10 lock position, core (5,6),
// when the mesh has it; otherwise the mesh center.
func defaultLockHome(m noc.Mesh) noc.NodeID {
	if m.Width > 5 && m.Height > 6 {
		return m.ID(5, 6)
	}
	return m.ID(m.Width/2, m.Height/2)
}

// jitter returns a closure drawing mean±j uniformly.
func jitter(mean, j int) func(r *rand.Rand) sim.Cycle {
	if mean <= 0 {
		mean = 1
	}
	return func(r *rand.Rand) sim.Cycle {
		v := mean
		if j > 0 {
			v += r.Intn(2*j+1) - j
		}
		if v < 1 {
			v = 1
		}
		return sim.Cycle(v)
	}
}

// Results is a run's record, the numbers Figures 2 and 8–13 are read
// from. A run manifest stores it as its "summary" block and inpgsim -json
// prints it, so the JSON keys are manifest schema, and the field order is
// the order keys were added to it, so a manifest's summary bytes do not
// move between schema versions. Per-thread rows and the energy estimate
// are read from the System (Threads, Energy).
type Results struct {
	// Runtime is the ROI finish time: the cycle the last thread finished.
	Runtime uint64 `json:"runtime_cycles"`
	// Threads is the number of competing threads.
	Threads int `json:"threads"`
	// Per-phase totals across threads (cycles).
	Parallel uint64 `json:"parallel_cycles"`
	COH      uint64 `json:"coh_cycles"`
	Sleep    uint64 `json:"sleep_cycles"`
	CSE      uint64 `json:"cse_cycles"`
	// CSCompleted is the total critical sections executed.
	CSCompleted int `json:"cs_completed"`
	// LCOPercent is the share of aggregate thread time spent with
	// lock-protocol memory operations outstanding (Figure 2's metric).
	LCOPercent float64 `json:"lco_percent"`
	// RTTMean/RTTMax/RTTSamples summarize invalidation–acknowledgement
	// round trips at their generator (Figure 10).
	RTTMean float64 `json:"rtt_mean_cycles"`
	RTTMax  uint64  `json:"rtt_max_cycles"`
	// EarlyInvs counts iNPG-generated early invalidations; Stopped the
	// GetX requests stopped at big routers.
	EarlyInvs uint64 `json:"early_invalidations"`
	Stopped   uint64 `json:"stopped_requests"`
	// Link-layer fault counters, all zero when fault injection is disabled:
	// FaultsInjected flit transmissions were dropped or corrupted on links,
	// LinkRetries retransmission attempts recovered them, LinkFailures
	// links were declared dead (bounded retries exhausted) and
	// PortStallHits switch grants were blocked by transient port stalls
	// (the last two below).
	FaultsInjected uint64 `json:"faults_injected"`
	LinkRetries    uint64 `json:"link_retries"`
	// Sleeps is the total QSL sleep episodes across threads.
	Sleeps     int    `json:"sleeps"`
	RTTSamples uint64 `json:"rtt_samples"`
	// NetMeanLatency is the mean end-to-end packet latency.
	NetMeanLatency float64 `json:"net_mean_latency_cycles"`
	LinkFailures   uint64  `json:"link_failures"`
	PortStallHits  uint64  `json:"port_stall_hits"`
	// FlitsSwitched is the total flit-switch operations across all routers
	// — the network's aggregate switching activity. Divided by Runtime ×
	// router count it is the mean link/crossbar utilization.
	FlitsSwitched uint64 `json:"flits_switched"`
}

// CSTime returns the total critical-section related time COH+Sleep+CSE,
// the quantity Figures 8b/11/14 are built on.
func (r *Results) CSTime() uint64 { return r.COH + r.Sleep + r.CSE }

// COHTotal returns competition overhead including sleep.
func (r *Results) COHTotal() uint64 { return r.COH + r.Sleep }

// Run executes the system until every thread finishes its program and
// returns the collected results.
func (s *System) Run() (*Results, error) {
	s.armAbort()
	for _, th := range s.threads {
		th.Start()
	}
	_, err := s.eng.Run(sim.Cycle(s.cfg.MaxCycles), func() bool {
		return s.finished == len(s.threads)
	})
	if err != nil {
		return nil, s.wrapError(err)
	}
	return s.collect(), nil
}

// collect assembles Results from the finished run.
func (s *System) collect() *Results {
	r := &Results{
		Runtime:    uint64(s.eng.Now()),
		Threads:    len(s.threads),
		RTTMean:    s.rtt.Mean(),
		RTTMax:     s.rtt.Max(),
		RTTSamples: s.rtt.Samples(),
	}
	var lockStall uint64
	for _, th := range s.threads {
		b := th.Breakdown
		r.Parallel += b.Parallel
		r.COH += b.COH
		r.Sleep += b.Sleep
		r.CSE += b.CSE
		r.CSCompleted += th.CSCompleted
		r.Sleeps += th.SleepCount
		lockStall += s.fab.L1s[th.ID].Stats.LockStallCycles
	}
	if r.Runtime > 0 && len(s.threads) > 0 {
		r.LCOPercent = 100 * float64(lockStall) / (float64(r.Runtime) * float64(len(s.threads)))
	}
	r.NetMeanLatency = s.fab.Net.MeanLatency()
	for _, g := range s.gens {
		r.EarlyInvs += g.Stats.EarlyInvsSent
		r.Stopped += g.Stats.GetXStopped
	}
	for id := 0; id < s.fab.Homes.Nodes; id++ {
		st := &s.fab.Net.Router(noc.NodeID(id)).Stats
		r.FlitsSwitched += st.FlitsSwitched
		r.LinkRetries += st.LinkRetries
		r.LinkFailures += st.LinkFailures
	}
	fst := s.fab.Net.FaultStats()
	r.FaultsInjected = fst.FlitsDropped + fst.FlitsCorrupted + fst.PermanentHits
	r.PortStallHits = fst.PortStallHits
	return r
}

// Energy estimates the run's dynamic NoC energy so far from its measured
// switching activity — flits switched by normal and by big routers, and
// the packets the big routers generated (early invalidations and relayed
// acks) — and the paper's Figure 7 power ratings.
func (s *System) Energy() chipmodel.EnergyReport {
	act := chipmodel.Activity{Cycles: uint64(s.eng.Now())}
	for id := 0; id < s.fab.Homes.Nodes; id++ {
		act.NormalFlits += s.fab.Net.Router(noc.NodeID(id)).Stats.FlitsSwitched
	}
	for _, g := range s.gens {
		flits := s.fab.Net.Router(g.Node).Stats.FlitsSwitched
		act.BigFlits += flits
		act.NormalFlits -= flits
		act.Generated += g.Stats.EarlyInvsSent + g.Stats.AcksRelayed
	}
	return chipmodel.Energy(act)
}

// Engine exposes the simulation engine (advanced use, examples).
func (s *System) Engine() *sim.Engine { return s.eng }

// Fabric exposes the coherent memory system (tests, invariant checks).
func (s *System) Fabric() *coherence.Fabric { return s.fab }

// RTT exposes the raw round-trip collector (Figure 10 maps/histograms).
func (s *System) RTT() *stats.RTTCollector { return s.rtt }

// Timeline exposes the recorded phase timeline, or nil when disabled.
func (s *System) Timeline() *stats.Timeline { return s.timeline }

// Trace exposes the protocol trace buffer, or nil when disabled.
func (s *System) Trace() *trace.Buffer { return s.tracer }

// Journeys exposes the lock-journey recorder, or nil when
// Config.JourneyRate is zero.
func (s *System) Journeys() *journey.Recorder { return s.journeys }

// payloadName renders a packet's payload type for traces.
func payloadName(p *noc.Packet) string {
	if m, ok := p.Payload.(*coherence.Message); ok {
		return m.Type.String()
	}
	return "?"
}

// Threads exposes the thread list.
func (s *System) Threads() []*cpu.Thread { return s.threads }

// BigRouters exposes the deployed packet generators (nil for non-iNPG).
func (s *System) BigRouters() []*bigrouter.Gen { return s.gens }
