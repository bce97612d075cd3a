package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"inpg"
	"inpg/internal/bigrouter"
	"inpg/internal/coherence"
	"inpg/internal/experiments"
	"inpg/internal/fleet"
	"inpg/internal/manifest"
	"inpg/internal/noc"
	"inpg/internal/runner"
	"inpg/internal/sim"
)

// Layer probes time the benchmark's own calls into one layer's public
// functions. Each probe runs probeBatches batches of fixed work and
// reports the fastest batch's cost per unit of work, for the same reason
// the workloads keep each config's fastest op.
const probeBatches = 5

// stopwatch accumulates the timed parts of a batch, leaving its set-up out.
type stopwatch struct {
	d  time.Duration
	t0 time.Time
}

func (s *stopwatch) start() { s.t0 = time.Now() }
func (s *stopwatch) stop()  { s.d += time.Since(s.t0) }

// probe runs batch probeBatches times; batch returns its units of work and
// times its measured part with sw. The result is nanoseconds per unit.
func probe(rec *recorder, name string, batch func(sw *stopwatch) (float64, error)) (float64, error) {
	outer := rec.begin("probe "+name, 0)
	defer outer.end()
	best := 0.0
	for b := 0; b < probeBatches; b++ {
		span := rec.begin("batch", 0)
		var sw stopwatch
		units, err := batch(&sw)
		span.end()
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		if units <= 0 {
			return 0, fmt.Errorf("probe %s: no work done", name)
		}
		if ns := float64(sw.d.Nanoseconds()) / units; b == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// runProbes runs every layer probe once. tiny shrinks the work per batch
// for the smoke test.
func runProbes(rec *recorder, dir string, tiny bool) (map[string]float64, error) {
	scale := func(n int) int {
		if tiny {
			return max(n/50, 1)
		}
		return n
	}
	// div converts nanoseconds per unit into the metric's unit.
	probes := []struct {
		metric string
		div    float64
		batch  func(sw *stopwatch) (float64, error)
	}{
		{"sim.probe.event_ns", 1, func(sw *stopwatch) (float64, error) {
			eng := sim.NewEngine(1)
			fn := func() {}
			n := scale(200_000)
			sw.start()
			for i := 0; i < n; i++ {
				eng.Schedule(0, fn)
				eng.Step()
			}
			sw.stop()
			return float64(n), nil
		}},
		// 2048 registered tickers, 8 of them awake: the shape of an
		// activity-light 32x32 mesh (one router and one NI per node).
		{"sim.probe.step_ns_per_ticker", 1, func(sw *stopwatch) (float64, error) {
			const tickers, awake = 2048, 8
			eng := sim.NewEngine(1)
			for i := 0; i < tickers; i++ {
				h := eng.Register(sim.TickFunc(func(sim.Cycle) {}))
				if i%(tickers/awake) != 0 {
					eng.Sleep(h)
				}
			}
			n := scale(5_000)
			sw.start()
			for i := 0; i < n; i++ {
				eng.Step()
			}
			sw.stop()
			return float64(n) * tickers, nil
		}},
		{"noc.probe.ns_per_flit", 1, func(sw *stopwatch) (float64, error) {
			eng := sim.NewEngine(1)
			net, err := noc.New(eng, noc.DefaultConfig())
			if err != nil {
				return 0, err
			}
			sw.start()
			_, err = noc.RunTraffic(eng, net, noc.TrafficConfig{
				Pattern: noc.UniformRandom, InjectionRate: 0.05,
				MeasureCycles: sim.Cycle(scale(5_000)), Seed: 1,
			})
			sw.stop()
			var flits uint64
			for id := 0; id < net.Mesh().Nodes(); id++ {
				flits += net.Router(noc.NodeID(id)).Stats.FlitsSwitched
			}
			return float64(flits), err
		}},
		{"coherence.probe.getx_storm_ns_per_txn", 1, func(sw *stopwatch) (float64, error) {
			return coherenceStorm(sw, scale(100), true)
		}},
		{"coherence.probe.gets_storm_ns_per_txn", 1, func(sw *stopwatch) (float64, error) {
			return coherenceStorm(sw, scale(100), false)
		}},
		{"bigrouter.probe.intercept_ns", 1, func(sw *stopwatch) (float64, error) {
			return interceptFullTable(sw, scale(500_000))
		}},
		{"fleet.probe.roundtrip_ms", 1e6, func(sw *stopwatch) (float64, error) {
			return fleetRoundTrips(sw, dir, true, scale(24))
		}},
		{"fleet.probe.roundtrip_nowal_ms", 1e6, func(sw *stopwatch) (float64, error) {
			return fleetRoundTrips(sw, dir, false, scale(24))
		}},
	}
	out := map[string]float64{}
	for _, p := range probes {
		v, err := probe(rec, p.metric, p.batch)
		if err != nil {
			return nil, err
		}
		out[p.metric] = v / p.div
	}

	for _, name := range probeLocks {
		kind, err := inpg.ParseLockKind(name)
		if err != nil {
			return nil, err
		}
		var cycles float64
		ns, err := probe(rec, "lock."+name, func(sw *stopwatch) (float64, error) {
			cfg := inpg.DefaultConfig()
			cfg.MeshWidth, cfg.MeshHeight = 4, 4
			cfg.Threads = 16
			cfg.CSPerThread = 8
			cfg.Lock = kind
			sys, err := inpg.New(cfg)
			if err != nil {
				return 0, err
			}
			sw.start()
			res, err := sys.Run()
			sw.stop()
			if err != nil {
				return 0, err
			}
			cycles = float64(res.Runtime) / float64(res.CSCompleted)
			return float64(res.CSCompleted), nil
		})
		if err != nil {
			return nil, err
		}
		prefix := "lock.probe." + strings.ToLower(name)
		out[prefix+".ns_per_cs"] = ns
		out[prefix+".cycles_per_cs"] = cycles
	}

	overhead, err := runnerOverhead(rec, scale(64))
	if err != nil {
		return nil, err
	}
	out["runner.probe.cell_overhead_us"] = overhead / 1e3

	write, scan, err := manifestCosts(rec, dir, scale(96))
	if err != nil {
		return nil, err
	}
	out["manifest.probe.write_us"] = write / 1e3
	out["manifest.probe.scan_ms"] = scan / 1e6
	return out, nil
}

// coherenceStorm builds the Table 1 fabric and has all 64 L1s hit one
// address at once, rounds times: atomics (a GetX storm, writes) or, after
// one untimed store invalidates every copy, loads (a GetS storm, reads).
// The units are the requests (GetX, GetS) the directories received during
// the timed parts.
func coherenceStorm(sw *stopwatch, rounds int, writes bool) (float64, error) {
	fab, err := coherence.NewFabric(sim.NewEngine(1), coherence.DefaultFabricConfig())
	if err != nil {
		return 0, err
	}
	addr := fab.Homes.AddrForHome(27, 0)
	txns := func() uint64 {
		var n uint64
		for _, d := range fab.Dirs {
			n += d.Stats.GetX + d.Stats.GetS
		}
		return n
	}
	var units uint64
	for r := 0; r < rounds; r++ {
		if !writes {
			fab.L1s[r%len(fab.L1s)].Store(addr, uint64(r), false, 0, func() {})
			if err := fab.Settle(1_000_000); err != nil {
				return 0, err
			}
		}
		before := txns()
		sw.start()
		for _, l1 := range fab.L1s {
			if writes {
				l1.Atomic(addr, coherence.Swap, 1, 0, 0, func(uint64) {})
			} else {
				l1.Load(addr, false, 0, func(uint64) {})
			}
		}
		err := fab.Settle(1_000_000)
		sw.stop()
		if err != nil {
			return 0, err
		}
		units += txns() - before
	}
	return float64(units), nil
}

// lockGetX builds a lock-acquire swap GetX from src for addr, the packet
// big routers intercept.
func lockGetX(src noc.NodeID, addr uint64) *noc.Packet {
	m := &coherence.Message{Type: coherence.MsgGetX, Addr: addr, Requestor: src,
		LockAddr: true, IsSwap: true, Operand: 1, ToDir: true}
	return &noc.Packet{Dst: 27, VNet: noc.VNetRequest, Size: 1, LockReq: true, Addr: addr, Payload: m}
}

// interceptFullTable fills a big router's 16-entry barrier table with 16
// locks, then times Intercept on a GetX for a 17th lock, which scans the
// table and passes. The pass leaves the packet untouched, so it is reused.
func interceptFullTable(sw *stopwatch, n int) (float64, error) {
	homes := coherence.HomeMap{Nodes: 64, BlockBytes: 128}
	g := bigrouter.New(sim.NewEngine(1), 18, homes, bigrouter.DefaultConfig())
	for i := 0; i < 16; i++ {
		g.Intercept(10, nil, lockGetX(noc.NodeID(i), homes.AddrForHome(27, i)))
	}
	if g.Barriers(10) != 16 {
		return 0, fmt.Errorf("barrier table holds %d entries, want 16", g.Barriers(10))
	}
	p := lockGetX(40, homes.AddrForHome(27, 16))
	sw.start()
	for i := 0; i < n; i++ {
		g.Intercept(10, nil, p)
	}
	sw.stop()
	if g.Stats.TableFullPasses != uint64(n) {
		return 0, fmt.Errorf("%d table-full passes, want %d", g.Stats.TableFullPasses, n)
	}
	return float64(n), nil
}

// tinyCells returns n distinct 2x2 configurations that simulate in well
// under a millisecond.
func tinyCells(n int) []inpg.Config {
	out := make([]inpg.Config, n)
	for i := range out {
		cfg := inpg.DefaultConfig()
		cfg.MeshWidth, cfg.MeshHeight = 2, 2
		cfg.CSPerThread = 1
		cfg.Seed = int64(i + 1)
		out[i] = cfg
	}
	return out
}

// runnerOverhead is the runner's per-cell cost: one worker running n tiny
// cells through RunResilient, minus the same cells in a plain loop, each
// side the fastest of probeBatches batches. Nanoseconds per cell.
func runnerOverhead(rec *recorder, n int) (float64, error) {
	cfgs := tinyCells(n)
	plain, err := probe(rec, "runner.plain", func(sw *stopwatch) (float64, error) {
		sw.start()
		defer sw.stop()
		for _, cfg := range cfgs {
			if _, err := experiments.Run(cfg); err != nil {
				return 0, err
			}
		}
		return float64(len(cfgs)), nil
	})
	if err != nil {
		return 0, err
	}
	resilient, err := probe(rec, "runner.resilient", func(sw *stopwatch) (float64, error) {
		sw.start()
		_, errs := runner.RunResilient(cfgs, runner.Policy{Workers: 1})
		sw.stop()
		for _, e := range errs {
			if e != nil {
				return 0, e
			}
		}
		return float64(len(cfgs)), nil
	})
	return resilient - plain, err
}

// manifestCosts times manifest.Build plus the atomic, fsynced WriteFile
// for n manifests (nanoseconds per manifest) and one ScanDir over them
// (nanoseconds per scan).
func manifestCosts(rec *recorder, dir string, n int) (write, scan float64, err error) {
	cfg := tinyCells(1)[0]
	res, err := experiments.Run(cfg)
	if err != nil {
		return 0, 0, err
	}
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	write, err = probe(rec, "manifest.write", func(sw *stopwatch) (float64, error) {
		d, err := workDir(dir, "manifests-")
		if err != nil {
			return 0, err
		}
		dirs = append(dirs, d)
		sw.start()
		defer sw.stop()
		for i := 0; i < n; i++ {
			m := manifest.Build("bench", i, cfg, res, nil, 0.001, nil)
			if _, err := m.WriteFile(d); err != nil {
				return 0, err
			}
		}
		return float64(n), nil
	})
	if err != nil {
		return 0, 0, err
	}
	scan, err = probe(rec, "manifest.scan", func(sw *stopwatch) (float64, error) {
		sw.start()
		got, warnings, err := manifest.ScanDir(dirs[0], "bench")
		sw.stop()
		if err == nil && (len(got) != n || len(warnings) != 0) {
			err = fmt.Errorf("scan found %d manifests and %d warnings, want %d and 0", len(got), len(warnings), n)
		}
		return 1, err
	})
	return write, scan, err
}

// fleetRoundTrips serves a coordinator on loopback with a campaign of n
// tiny cells and plays one worker by hand: each lease → complete round
// trip is timed, the results having been computed beforehand. With wal
// the coordinator has a manifest directory and fsyncs its log per event.
func fleetRoundTrips(sw *stopwatch, dir string, wal bool, n int) (float64, error) {
	cfgs := tinyCells(n)
	results := make([]*inpg.Results, n)
	for i, cfg := range cfgs {
		res, err := experiments.Run(cfg)
		if err != nil {
			return 0, err
		}
		results[i] = res
	}
	fcfg := fleet.Config{}
	if wal {
		d, err := workDir(dir, "fleet-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(d)
		fcfg.ManifestDir = filepath.Join(d, "m")
	}
	coord := fleet.NewCoordinator(fcfg)
	addr, stopServer, err := serveLoopback(coord)
	if err != nil {
		return 0, err
	}
	// The campaign returns once every cell is completed below. On an error
	// return it stays blocked; the probe process exits right after.
	campaign := make(chan []*runner.RunError, 1)
	go func() {
		_, errs := coord.RunCampaign("probe", cfgs, runner.Policy{})
		campaign <- errs
	}()
	transport := &http.Transport{MaxConnsPerHost: 1}
	client := &http.Client{Transport: transport}
	base := "http://" + addr
	defer func() {
		coord.Shutdown()
		stopServer()
		transport.CloseIdleConnections()
	}()

	post := func(path string, in, out any) error {
		body, err := json.Marshal(in)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	done := 0
	deadline := time.Now().Add(30 * time.Second)
	for done < n {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("fleet probe: %d of %d cells after 30s", done, n)
		}
		t0 := time.Now()
		var lease fleet.LeaseResponse
		if err := post(fleet.PathLease, fleet.LeaseRequest{Worker: "probe"}, &lease); err != nil {
			return 0, err
		}
		if lease.Lease == nil {
			// The campaign is not published yet; this poll is not a round trip.
			time.Sleep(time.Millisecond)
			continue
		}
		l := lease.Lease
		var ack fleet.CompletionResponse
		err := post(fleet.PathComplete, fleet.CompletionReport{Worker: "probe", LeaseID: l.ID,
			Sweep: l.Sweep, Index: l.Index, Digest: l.Digest, OK: true, Res: results[l.Index]}, &ack)
		sw.d += time.Since(t0)
		if err != nil {
			return 0, err
		}
		if !ack.Accepted {
			return 0, fmt.Errorf("fleet probe: completion of cell %d not accepted", l.Index)
		}
		done++
	}
	for _, e := range <-campaign {
		if e != nil {
			return 0, e
		}
	}
	return float64(n), nil
}
