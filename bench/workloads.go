package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"inpg"
	"inpg/internal/experiments"
	"inpg/internal/fleet"
	"inpg/internal/noc"
	"inpg/internal/runner"
)

// workload is one set of inputs the benchmark runs. A sim workload rotates
// its ops through a fixed list of configurations derived from the seed; a
// sweep workload's op is one quick Figure 11/12 suite (96 cells).
type workload struct {
	name string
	why  string
	// procs is how many fresh child processes one run spreads its
	// measured time over.
	procs int
	// configs lists the simulations a sim workload rotates through; nil
	// marks a sweep workload.
	configs func(seed int64, tiny bool) []inpg.Config
	// viaFleet routes a sweep workload's suite through an in-process
	// fleet coordinator and worker instead of the local runner pool.
	viaFleet bool
}

// t1Configs and meshConfigs are how many seeds a sim workload's run
// rotates through: enough that a run's totals do not hinge on one seed, few
// enough that every configuration repeats within the run.
const (
	t1Configs   = 8
	meshConfigs = 2
)

var workloads = []*workload{
	{
		name:    "t1-original",
		why:     "BenchmarkSimulatorThroughput: 8x8 QSL, Original. Router pipeline and engine dominate; no big routers, so bigrouter/OCOR changes must not move it",
		procs:   20,
		configs: table1(inpg.Original),
	},
	{
		name:    "t1-inpg",
		why:     "The same 8x8 run under iNPG+OCOR: 32 big routers intercept lock GetX and OCOR arbitrates, so a bigrouter change shows here and not on t1-original",
		procs:   20,
		configs: table1(inpg.INPGOCOR),
	},
	{
		name:    "mesh32-qsl",
		why:     "32x32 iNPG+OCOR QSL, 256 threads, classic engine: 2048 tickers with few awake, so the engine's ticker scan dominates and an engine change shows here most",
		procs:   8,
		configs: largeMesh(32, 256, inpg.LockQSL, 500, false),
	},
	{
		name:    "mesh16-ttl-auto",
		why:     "16x16 contended TTL with the CLI-default AutoShards shard count: most routers awake, so it measures the sharded tick pass users get by default",
		procs:   8,
		configs: largeMesh(16, 0, inpg.LockTTL, 2000, true),
	},
	{
		name:  "sweep-local",
		why:   "Quick Fig 11/12 suite, 96 cells on 2 runner workers with manifests: the runner pool, manifest writes and cross-cell parallelism",
		procs: 6,
	},
	{
		name:     "sweep-fleet",
		why:      "The same suite through an in-process fleet coordinator (WAL on) and one 2-slot worker on loopback: every cell pays a lease round trip",
		procs:    6,
		viaFleet: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// table1 is BenchmarkSimulatorThroughput's configuration: the Table 1 8x8
// platform, 3 critical sections of 100±30 cycles per thread separated by
// 1500±200 cycles of parallel work, seeds seed, seed+1, ...
func table1(mech inpg.Mechanism) func(int64, bool) []inpg.Config {
	return func(seed int64, tiny bool) []inpg.Config {
		var out []inpg.Config
		for i := 0; i < t1Configs; i++ {
			cfg := inpg.DefaultConfig()
			cfg.Mechanism = mech
			cfg.CSPerThread = 3
			cfg.CSCycles = 100
			cfg.ParallelCycles = 1500
			cfg.Seed = seed + int64(i)
			if tiny {
				cfg.MeshWidth, cfg.MeshHeight = 4, 4
			}
			out = append(out, cfg)
		}
		return out
	}
}

// largeMesh is BenchmarkSimulatorLargeMesh's configuration: iNPG+OCOR on a
// dim×dim mesh, one critical section of 50±15 cycles per thread after
// parallel±parallel/4 cycles, threads threads (0: one per core).
// autoShards applies the CLI default shard count; otherwise Shards stays
// at the library default (classic engine).
func largeMesh(dim, threads int, lk inpg.LockKind, parallel int, autoShards bool) func(int64, bool) []inpg.Config {
	return func(seed int64, tiny bool) []inpg.Config {
		var out []inpg.Config
		for i := 0; i < meshConfigs; i++ {
			cfg := inpg.DefaultConfig()
			cfg.MeshWidth, cfg.MeshHeight = dim, dim
			cfg.Threads = threads
			if tiny {
				cfg.MeshWidth, cfg.MeshHeight, cfg.Threads = 4, 4, 0
			}
			cfg.Mechanism = inpg.INPGOCOR
			cfg.Lock = lk
			cfg.CSPerThread = 1
			cfg.CSCycles = 50
			cfg.CSJitter = 15
			cfg.ParallelCycles = parallel
			cfg.ParallelJitter = parallel / 4
			cfg.Seed = seed + int64(i)
			if autoShards {
				cfg.Shards = inpg.AutoShards(cfg.MeshWidth, cfg.MeshHeight)
			}
			out = append(out, cfg)
		}
		return out
	}
}

// opSample is one measured op. Config indexes the workload's config list
// (always 0 for a sweep, whose op is the whole suite).
type opSample struct {
	Config  int     `json:"config"`
	SetupS  float64 `json:"setup_s"`
	RunS    float64 `json:"run_s"`
	WallS   float64 `json:"wall_s"`
	Cycles  uint64  `json:"cycles"`
	Cells   int     `json:"cells"`
	AllocB  uint64  `json:"alloc_bytes"`
	Mallocs uint64  `json:"mallocs"`
	// Digest fingerprints the op's output (the Results of a simulation,
	// the rendered figures of a sweep); every op of one config must agree.
	Digest   string    `json:"digest"`
	Err      string    `json:"err,omitempty"`
	Counters *counters `json:"counters,omitempty"`
}

// counters are the simulated layers' work counts, read from their public
// Stats after a run.
type counters struct {
	Flits, VCStalls              uint64
	DirTxns, InvsSent, EarlyRecs uint64
	L1Hits, L1Misses             uint64
	MSHRAllocs, MSHRRejects      uint64
	GetXPassed, GetXStopped      uint64
	EarlyInvs, TableFull         uint64
}

func (c *counters) add(o counters) {
	c.Flits += o.Flits
	c.VCStalls += o.VCStalls
	c.DirTxns += o.DirTxns
	c.InvsSent += o.InvsSent
	c.EarlyRecs += o.EarlyRecs
	c.L1Hits += o.L1Hits
	c.L1Misses += o.L1Misses
	c.MSHRAllocs += o.MSHRAllocs
	c.MSHRRejects += o.MSHRRejects
	c.GetXPassed += o.GetXPassed
	c.GetXStopped += o.GetXStopped
	c.EarlyInvs += o.EarlyInvs
	c.TableFull += o.TableFull
}

func readCounters(sys *inpg.System) counters {
	var c counters
	fab := sys.Fabric()
	for id := 0; id < fab.Homes.Nodes; id++ {
		st := fab.Net.Router(noc.NodeID(id)).Stats
		c.Flits += st.FlitsSwitched
		c.VCStalls += st.VCStalls
	}
	for _, d := range fab.Dirs {
		c.DirTxns += d.Stats.TxnStarted
		c.InvsSent += d.Stats.InvsSent
		c.EarlyRecs += d.Stats.EarlyRecsUsed
	}
	for _, l1 := range fab.L1s {
		c.L1Hits += l1.Stats.Hits
		c.L1Misses += l1.Stats.Misses
		c.MSHRAllocs += l1.MSHR().Allocs()
		c.MSHRRejects += l1.MSHR().Rejects()
	}
	for _, g := range sys.BigRouters() {
		c.GetXPassed += g.Stats.GetXPassed
		c.GetXStopped += g.Stats.GetXStopped
		c.EarlyInvs += g.Stats.EarlyInvsSent
		c.TableFull += g.Stats.TableFullPasses
	}
	return c
}

// digestOf fingerprints a JSON-encodable output.
func digestOf(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// checkResults is the per-simulation correctness check: every thread
// completed its whole critical-section quota.
func checkResults(cfg inpg.Config, res *inpg.Results) error {
	if want := res.Threads * cfg.CSPerThread; res.CSCompleted != want {
		return fmt.Errorf("seed %d: %d critical sections completed, want %d", cfg.Seed, res.CSCompleted, want)
	}
	return nil
}

// simOp builds and runs one configuration, timing inpg.New and
// System.Run separately. Counters and memory statistics are read outside
// the timed regions.
func simOp(cfg inpg.Config, k int, rec *recorder) opSample {
	op := opSample{Config: k, Cells: 1}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	opSpan := rec.begin(fmt.Sprintf("op seed=%d", cfg.Seed), 0)
	setup := rec.begin("inpg.New", 0)
	sys, err := inpg.New(cfg)
	op.SetupS = setup.end()
	if err != nil {
		opSpan.end()
		op.Err = err.Error()
		return op
	}
	run := rec.begin("System.Run", 0)
	res, err := sys.Run()
	op.RunS = run.end()
	op.WallS = opSpan.end()
	runtime.ReadMemStats(&m1)
	op.AllocB = m1.TotalAlloc - m0.TotalAlloc
	op.Mallocs = m1.Mallocs - m0.Mallocs
	if err == nil {
		err = checkResults(cfg, res)
	}
	if err != nil {
		op.Err = err.Error()
		return op
	}
	op.Cycles = res.Runtime
	op.Digest = digestOf(res)
	c := readCounters(sys)
	op.Counters = &c
	return op
}

// cellSample is one sweep cell's timing as the runner's Observer saw it:
// claimed at Start, reported done at End, WallS of which the attempt
// itself took. Lane is the trace row the cell's span occupies.
type cellSample struct {
	Op    int     `json:"op"`
	Lane  int     `json:"lane"`
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
	WallS float64 `json:"wall_s"`
}

// sweepOp runs one quick Figure 11/12 suite with a fresh manifest
// directory. It returns the op, the cells' timings and the cell
// configurations in submission order (for the set-up and counter passes).
func sweepOp(w *workload, seed int64, tiny bool, opIndex int, dir string, rec *recorder) (opSample, []cellSample, []inpg.Config) {
	op := opSample{}
	o := experiments.DefaultOptions()
	o.Quick = true
	o.Seed = seed
	o.Workers = 2
	o.ManifestDir = dir
	if tiny {
		o.Programs = []string{"bodytrack", "canneal"}
	}

	var mu sync.Mutex
	claimed := map[int]float64{}
	cfgs := map[int]inpg.Config{}
	var cells []cellSample
	var lanes []float64 // end of the last span on each trace lane
	var cellErr error
	o.Observer = func(out runner.Outcome) {
		now := nowMicros()
		mu.Lock()
		defer mu.Unlock()
		if !out.Done {
			claimed[out.Index] = now
			return
		}
		cfgs[out.Index] = out.Cfg
		switch {
		case out.Err != nil:
			cellErr = fmt.Errorf("cell %d: %w", out.Index, out.Err)
		case out.Res == nil:
			cellErr = fmt.Errorf("cell %d: no results", out.Index)
		default:
			if err := checkResults(out.Cfg, out.Res); err != nil {
				cellErr = fmt.Errorf("cell %d: %w", out.Index, err)
			}
			op.Cycles += out.Res.Runtime
		}
		start := claimed[out.Index]
		lane := 0
		for lane < len(lanes) && lanes[lane] > start {
			lane++
		}
		if lane == len(lanes) {
			lanes = append(lanes, 0)
		}
		lanes[lane] = now
		cells = append(cells, cellSample{Op: opIndex, Lane: lane + 1, Start: start, End: now, WallS: out.WallSeconds})
	}

	if w.viaFleet {
		stop, err := startFleet(&o, dir)
		if err != nil {
			op.Err = err.Error()
			return op, nil, nil
		}
		defer stop()
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	span := rec.begin("sweep "+w.name, 0)
	suite, err := experiments.RunSuite(o)
	op.WallS = span.end()
	op.RunS = op.WallS
	runtime.ReadMemStats(&m1)
	op.AllocB = m1.TotalAlloc - m0.TotalAlloc
	op.Mallocs = m1.Mallocs - m0.Mallocs

	ordered := make([]inpg.Config, len(cfgs))
	for i, cfg := range cfgs {
		if i < len(ordered) {
			ordered[i] = cfg
		}
	}
	op.Cells = len(ordered)
	switch {
	case err != nil:
		op.Err = err.Error()
	case len(suite.Missing) > 0:
		op.Err = fmt.Sprintf("%d missing cells, first %s", len(suite.Missing), suite.Missing[0])
	case cellErr != nil:
		op.Err = cellErr.Error()
	default:
		op.Digest = digestOf(suite.RenderFig11() + suite.RenderFig12())
	}
	return op, cells, ordered
}

// startFleet serves an in-process coordinator on loopback and attaches
// one worker with two slots (nproc on the reference host). The worker's
// HTTP transport is capped at two connections. The returned stop orders
// the fleet down and waits for the worker and the server to finish.
func startFleet(o *experiments.Options, dir string) (func(), error) {
	coord := fleet.NewCoordinator(fleet.Config{ManifestDir: dir})
	addr, stopServer, err := serveLoopback(coord)
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxConnsPerHost: 2}
	wk := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: addr,
		ID:          "bench",
		Slots:       2,
		// The repository's fleet tests poll at this pace; the CLI default
		// (250 ms) would add an idle wait before the first lease.
		PollInterval: 2 * time.Millisecond,
		HTTPClient:   &http.Client{Transport: transport},
	})
	worked := make(chan struct{})
	go func() {
		defer close(worked)
		wk.Run()
	}()
	o.Campaign = coord
	return func() {
		coord.Shutdown()
		<-worked
		stopServer()
		transport.CloseIdleConnections()
	}, nil
}

// serveLoopback serves h on a loopback port. stop closes the server and
// waits for its serve loop to return.
func serveLoopback(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return ln.Addr().String(), func() {
		srv.Close()
		<-served
	}, nil
}

// setupTimes times inpg.New on each configuration once; the sweep itself
// never sees these builds.
func setupTimes(cfgs []inpg.Config, rec *recorder) ([]keyed, error) {
	var out []keyed
	for i, cfg := range cfgs {
		span := rec.begin("inpg.New", 0)
		_, err := inpg.New(cfg)
		d := span.end()
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		out = append(out, keyed{Key: i, V: d})
	}
	return out, nil
}

// sweepCounters reruns every cell of a sweep (two at a time, outside any
// timing) and sums the simulated layers' counters.
func sweepCounters(cfgs []inpg.Config) (counters, error) {
	per := make([]counters, len(cfgs))
	err := runner.ForEach(len(cfgs), 2, func(i int) error {
		sys, err := inpg.New(cfgs[i])
		if err != nil {
			return err
		}
		if _, err := sys.Run(); err != nil {
			return err
		}
		per[i] = readCounters(sys)
		return nil
	})
	var sum counters
	for _, c := range per {
		sum.add(c)
	}
	return sum, err
}

// workDir makes a fresh scratch directory under dir.
func workDir(dir, pattern string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, pattern)
}
