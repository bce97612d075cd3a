// Package monitor serves a live view of a running experiment sweep: a
// plain-text progress page, the Prometheus text exposition on /metrics,
// a liveness probe and net/http/pprof — all on one address the user
// picks with inpgbench -monitor.
//
// The monitor never touches a simulation. Its Observer folds each
// Outcome into the state under the monitor's mutex, on the goroutine
// that reports it: a runner.RunResilient worker or a fleet coordinator
// handler, both between simulations, so there are no locks on any sim
// hot path.
package monitor

import (
	"context"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"inpg/internal/fleet"
	"inpg/internal/journey"
	"inpg/internal/metrics"
	"inpg/internal/runner"
)

// rateWindow bounds the rolling-throughput window: runs per second is
// measured over completions in the last rateWindow.
const rateWindow = 30 * time.Second

// closeGrace bounds the graceful HTTP shutdown inside Close: in-flight
// handlers get this long to finish before the server is torn down hard.
const closeGrace = 2 * time.Second

// WorkerStatus is one runner worker goroutine's current activity.
type WorkerStatus struct {
	Worker int
	Busy   bool
	Index  int
	Label  string
}

// Status is the monitor's public state, rendered by the progress page
// and /metrics.
type Status struct {
	Completed int
	Failed    int
	InFlight  int
	// Skipped counts the cells resume satisfied from prior manifests;
	// Abandoned the fleet claims closed without a result because the
	// lease expired or another worker's report settled the cell.
	Skipped        int
	Abandoned      int
	ElapsedSeconds float64
	// RunsPerSecond is throughput over the rolling window (not the whole
	// sweep), so it tracks slowdowns as heavier configurations start.
	RunsPerSecond float64
	// Workers is the local runner pool's per-slot view; nil on a fleet
	// sweep, whose outcomes all carry worker 0 and whose per-worker view
	// is Fleet.Workers.
	Workers []WorkerStatus
	// Counters aggregates the final telemetry snapshots of completed
	// metered runs (empty when metrics are off).
	Counters map[string]uint64
	// Fleet is the coordinator's live state when this monitor fronts a
	// distributed campaign (SetFleet): per-worker liveness and leases
	// held, leases outstanding, reclaims. Nil on local sweeps.
	Fleet *fleet.Status
}

// Monitor aggregates run outcomes and serves them over HTTP.
type Monitor struct {
	mu        sync.Mutex
	start     time.Time
	workers   map[int]*WorkerStatus
	counters  map[string]uint64
	recent    []time.Time
	complete  int
	failed    int
	inFlight  int
	skipped   int
	abandoned int
	fleetFn   func() fleet.Status

	srv *http.Server
}

// New builds an idle monitor; Serve exposes it.
func New() *Monitor {
	return &Monitor{
		start:    time.Now(),
		workers:  map[int]*WorkerStatus{},
		counters: map[string]uint64{},
	}
}

// Observer returns the runner.Observer feeding this monitor: it folds
// each outcome into the state under the monitor's mutex, on the calling
// goroutine.
func (m *Monitor) Observer() runner.Observer {
	return func(o runner.Outcome) {
		m.mu.Lock()
		m.apply(o)
		m.mu.Unlock()
	}
}

// SetFleet installs the fleet-status provider — the coordinator's Status
// method — replacing the runner-slot rows of the progress page with the
// fleet section and adding the fleet gauges to /metrics. Call before the
// campaign starts.
func (m *Monitor) SetFleet(fn func() fleet.Status) {
	m.mu.Lock()
	m.fleetFn = fn
	m.mu.Unlock()
}

// Serve starts the HTTP server on addr (e.g. ":8080") and returns the
// bound address. Endpoints: / (plain-text progress), /metrics
// (Prometheus text exposition), /healthz (liveness), /debug/pprof/
// (profiling).
func (m *Monitor) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", m.handleText)
	mux.HandleFunc("/metrics", m.handleMetrics)
	mux.HandleFunc("/healthz", m.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	m.srv = &http.Server{Handler: mux}
	go m.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close shuts the HTTP server down gracefully: in-flight handlers get
// closeGrace to finish before the server is torn down hard.
func (m *Monitor) Close() error {
	if m.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	if err := m.srv.Shutdown(ctx); err != nil {
		return m.srv.Close()
	}
	return nil
}

// apply folds one outcome into the state. Caller holds mu.
func (m *Monitor) apply(o runner.Outcome) {
	// Skipped cells were never claimed: they emit a single Done outcome
	// with no matching claim, so they must not touch in-flight or worker
	// state.
	if o.Status == runner.StatusSkipped {
		m.skipped++
		return
	}
	w := m.workers[o.Worker]
	if w == nil {
		w = &WorkerStatus{Worker: o.Worker}
		m.workers[o.Worker] = w
	}
	if !o.Done {
		m.inFlight++
		w.Busy, w.Index = true, o.Index
		w.Label = fmt.Sprintf("%s/%s seed %d", o.Cfg.Mechanism, o.Cfg.Lock, o.Cfg.Seed)
		return
	}
	m.inFlight--
	w.Busy, w.Label = false, ""
	if o.Status == runner.StatusAbandoned {
		// The claim closed without a result: the cell went back to the
		// queue, or another worker's report settled it and counts as its
		// completion.
		m.abandoned++
	} else {
		m.complete++
		if o.Err != nil {
			m.failed++
		}
	}
	now := time.Now()
	m.recent = append(m.recent, now)
	cut := 0
	for cut < len(m.recent) && now.Sub(m.recent[cut]) > rateWindow {
		cut++
	}
	m.recent = m.recent[cut:]
	// Counter values and histogram count/sum aggregates both fold in, so
	// the journey stage histograms survive aggregation (per-stage means
	// are derivable from <name>_sum / <name>_count).
	metrics.FoldSnapshot(m.counters, o.Snapshot)
}

// Status returns a consistent copy of the current state. The fleet
// provider is called after the monitor's mutex is released, so the
// monitor never holds it while waiting for the coordinator's lock.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	st := Status{
		Completed:      m.complete,
		Failed:         m.failed,
		InFlight:       m.inFlight,
		Skipped:        m.skipped,
		Abandoned:      m.abandoned,
		ElapsedSeconds: time.Since(m.start).Seconds(),
	}
	if n := len(m.recent); n > 0 {
		span := time.Since(m.recent[0]).Seconds()
		if span < 1 {
			span = 1
		}
		st.RunsPerSecond = float64(n) / span
	}
	fleetFn := m.fleetFn
	if fleetFn == nil {
		for _, w := range m.workers {
			st.Workers = append(st.Workers, *w)
		}
		sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Worker < st.Workers[j].Worker })
	}
	if len(m.counters) > 0 {
		st.Counters = maps.Clone(m.counters)
	}
	m.mu.Unlock()
	if fleetFn != nil {
		fs := fleetFn()
		st.Fleet = &fs
	}
	return st
}

// handleMetrics serves the monitor's state in the Prometheus text
// exposition format: the aggregated telemetry counters of completed runs
// (inpg_<instrument>, histograms as _count/_sum pairs) plus sweep
// progress gauges (inpg_sweep_*) and, on fleet campaigns, the
// coordinator's dispatch gauges (inpg_fleet_*).
func (m *Monitor) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := m.Status()
	gauges := map[string]float64{
		"sweep.completed":       float64(st.Completed),
		"sweep.failed":          float64(st.Failed),
		"sweep.in_flight":       float64(st.InFlight),
		"sweep.skipped":         float64(st.Skipped),
		"sweep.abandoned":       float64(st.Abandoned),
		"sweep.elapsed_seconds": st.ElapsedSeconds,
		"sweep.runs_per_second": st.RunsPerSecond,
	}
	if st.Fleet != nil {
		maps.Copy(gauges, st.Fleet.Gauges())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WritePrometheus(w, st.Counters, gauges)
}

// handleText serves the human-readable progress page.
func (m *Monitor) handleText(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	st := m.Status()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	fmt.Fprintf(&b, "inpg sweep monitor\n")
	fmt.Fprintf(&b, "completed %d (%d failed), %d in flight, elapsed %.1fs, %.2f runs/s\n",
		st.Completed, st.Failed, st.InFlight, st.ElapsedSeconds, st.RunsPerSecond)
	if st.Skipped+st.Abandoned > 0 {
		fmt.Fprintf(&b, "skipped %d, abandoned %d\n", st.Skipped, st.Abandoned)
	}
	b.WriteByte('\n')
	for _, ws := range st.Workers {
		if ws.Busy {
			fmt.Fprintf(&b, "worker %2d: run %4d  %s\n", ws.Worker, ws.Index, ws.Label)
		} else {
			fmt.Fprintf(&b, "worker %2d: idle\n", ws.Worker)
		}
	}
	if fs := st.Fleet; fs != nil {
		// In place of the runner-slot rows, which Status leaves out.
		fmt.Fprintf(&b, "fleet: sweep %s, %d/%d cells, %d leases outstanding\n",
			fs.Sweep, fs.Completed, fs.Cells, fs.LeasesOutstanding)
		fmt.Fprintf(&b, "fleet: reclaimed %d, duplicates %d, late accepts %d, digest conflicts %d\n",
			fs.Reclaims, fs.Duplicates, fs.LateAccepts, fs.DigestConflicts)
		for _, fw := range fs.Workers {
			fmt.Fprintf(&b, "fleet worker %-24s last seen %5.1fs ago, %d leases held, %d completed, %d failed\n",
				fw.ID, fw.LastSeenSeconds, fw.Leases, fw.Completed, fw.Failed)
		}
	}
	// Lock-journey stage breakdown: aggregated per-stage attribution over
	// every sampled acquisition of every completed run (journey tracing
	// on), with each stage's share of the mean end-to-end latency.
	if n := st.Counters["journey.e2e_cycles_count"]; n > 0 {
		e2e := st.Counters["journey.e2e_cycles_sum"]
		fmt.Fprintf(&b, "\nlock-journey stage breakdown (%d sampled acquisitions, mean cycles per stage):\n", n)
		for _, stg := range journey.Stages {
			sum := st.Counters["journey.stage."+stg.String()+"_cycles_sum"]
			pct := 0.0
			if e2e > 0 {
				pct = 100 * float64(sum) / float64(e2e)
			}
			fmt.Fprintf(&b, "  %-10s %12.1f  %5.1f%%\n", stg, float64(sum)/float64(n), pct)
		}
		fmt.Fprintf(&b, "  %-10s %12.1f\n", "e2e", float64(e2e)/float64(n))
	}
	if len(st.Counters) > 0 {
		names := make([]string, 0, len(st.Counters))
		for k := range st.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "\naggregated counters over completed runs:\n")
		for _, k := range names {
			fmt.Fprintf(&b, "  %-32s %d\n", k, st.Counters[k])
		}
	}
	fmt.Fprint(w, b.String())
}

// handleHealthz answers liveness probes: the monitor is healthy while it
// serves.
func (m *Monitor) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}
