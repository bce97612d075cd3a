// Package monitor serves a live view of a running experiment sweep: an
// expvar-style JSON endpoint, a plain-text progress page, a Server-Sent
// Events stream, and net/http/pprof — all on one address the user picks
// with inpgbench -monitor.
//
// The monitor never touches a simulation: runner workers hand finished
// Outcomes to the Observer, which forwards them over a buffered channel
// to a single aggregator goroutine. All shared state lives behind the
// aggregator's mutex, which only it and HTTP handlers take — there are no
// locks or channels on any sim hot path.
package monitor

import (
	"context"
	"encoding/json"
	"fmt"
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

// WorkerStatus is one worker goroutine's current activity.
type WorkerStatus struct {
	Worker int    `json:"worker"`
	Busy   bool   `json:"busy"`
	Index  int    `json:"index"`
	Label  string `json:"label,omitempty"`
}

// Status is the monitor's public state, served as JSON on /vars and as a
// data frame on every /events message.
type Status struct {
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	InFlight  int `json:"in_flight"`
	// Retried counts failed attempts that re-ran; Quarantined the runs
	// that exhausted every attempt; Skipped the cells resume satisfied
	// from prior manifests; Abandoned the clean completions whose results
	// were discarded because the sweep had already failed.
	Retried        int     `json:"retried"`
	Quarantined    int     `json:"quarantined"`
	Skipped        int     `json:"skipped"`
	Abandoned      int     `json:"abandoned"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// RunsPerSecond is throughput over the rolling window (not the whole
	// sweep), so it tracks slowdowns as heavier configurations start.
	RunsPerSecond float64        `json:"runs_per_second"`
	Workers       []WorkerStatus `json:"workers"`
	// Counters aggregates the final telemetry snapshots of completed
	// metered runs (empty when metrics are off).
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Fleet is the coordinator's live state when this monitor fronts a
	// distributed campaign (SetFleet): per-worker liveness, leases
	// outstanding, reclaims, quarantines. Nil on local sweeps.
	Fleet *fleet.Status `json:"fleet,omitempty"`
}

// Monitor aggregates run outcomes and serves them over HTTP.
type Monitor struct {
	ch    chan runner.Outcome
	drain sync.WaitGroup

	mu          sync.Mutex
	start       time.Time
	workers     map[int]*WorkerStatus
	counters    map[string]uint64
	recent      []time.Time
	complete    int
	failed      int
	inFlight    int
	retried     int
	quarantined int
	skipped     int
	abandoned   int
	subs        map[chan []byte]struct{}
	closed      bool
	fleetFn     func() fleet.Status

	ln  net.Listener
	srv *http.Server
}

// New builds a monitor and starts its aggregator goroutine.
func New() *Monitor {
	m := &Monitor{
		ch:       make(chan runner.Outcome, 256),
		start:    time.Now(),
		workers:  map[int]*WorkerStatus{},
		counters: map[string]uint64{},
		subs:     map[chan []byte]struct{}{},
	}
	m.drain.Add(1)
	go m.loop()
	return m
}

// Observer returns the runner.Observer feeding this monitor. All it does
// on the worker's goroutine is a buffered channel send.
func (m *Monitor) Observer() runner.Observer {
	return func(o runner.Outcome) { m.ch <- o }
}

// SetFleet installs the fleet-status provider — the coordinator's Status
// method — turning /vars, /events and the progress page into the fleet
// dashboard. Call before the campaign starts.
func (m *Monitor) SetFleet(fn func() fleet.Status) {
	m.mu.Lock()
	m.fleetFn = fn
	m.mu.Unlock()
}

// Serve starts the HTTP server on addr (e.g. ":8080") and returns the
// bound address. Endpoints: / (plain-text progress), /vars (JSON),
// /metrics (Prometheus text exposition), /events (SSE), /debug/pprof/
// (profiling).
func (m *Monitor) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", m.handleText)
	mux.HandleFunc("/vars", m.handleVars)
	mux.HandleFunc("/metrics", m.handleMetrics)
	mux.HandleFunc("/events", m.handleEvents)
	mux.HandleFunc("/healthz", m.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	m.ln = ln
	m.srv = &http.Server{Handler: mux}
	go m.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the monitor gracefully: the aggregator drains its queued
// outcomes, SSE subscribers are flushed and released (their channels
// closed, so streams end cleanly rather than mid-frame), and the HTTP
// server gets a bounded graceful shutdown (closeGrace) before being torn
// down hard. The caller must not invoke the Observer after Close — in
// practice: close after every sweep using it has returned.
func (m *Monitor) Close() error {
	close(m.ch)
	m.drain.Wait()
	m.mu.Lock()
	m.closed = true
	for sub := range m.subs {
		close(sub)
	}
	m.subs = map[chan []byte]struct{}{}
	m.mu.Unlock()
	if m.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
		defer cancel()
		if err := m.srv.Shutdown(ctx); err != nil {
			return m.srv.Close()
		}
	}
	return nil
}

// loop is the aggregator: the only writer of monitor state.
func (m *Monitor) loop() {
	defer m.drain.Done()
	for o := range m.ch {
		m.mu.Lock()
		m.apply(o)
		if len(m.subs) > 0 {
			frame, err := json.Marshal(m.statusLocked())
			if err == nil {
				for sub := range m.subs {
					select {
					case sub <- frame:
					default: // slow subscriber: drop the frame, not the sweep
					}
				}
			}
		}
		m.mu.Unlock()
	}
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
	if o.Status == runner.StatusRetrying {
		// The attempt finished but the run is unresolved: a fresh claim
		// for the next attempt follows.
		m.retried++
	} else {
		m.complete++
		if o.Err != nil {
			m.failed++
		}
		switch o.Status {
		case runner.StatusQuarantined:
			m.quarantined++
		case runner.StatusAbandoned:
			m.abandoned++
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

// statusLocked assembles the public Status. Caller holds mu.
func (m *Monitor) statusLocked() Status {
	st := Status{
		Completed:      m.complete,
		Failed:         m.failed,
		InFlight:       m.inFlight,
		Retried:        m.retried,
		Quarantined:    m.quarantined,
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
	for _, w := range m.workers {
		st.Workers = append(st.Workers, *w)
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Worker < st.Workers[j].Worker })
	if len(m.counters) > 0 {
		st.Counters = make(map[string]uint64, len(m.counters))
		for k, v := range m.counters {
			st.Counters[k] = v
		}
	}
	if m.fleetFn != nil {
		fs := m.fleetFn()
		st.Fleet = &fs
	}
	return st
}

// Status returns a consistent copy of the current state.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.statusLocked()
}

// handleVars serves the full status as JSON (expvar-style).
func (m *Monitor) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m.Status())
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
		"sweep.retried":         float64(st.Retried),
		"sweep.quarantined":     float64(st.Quarantined),
		"sweep.skipped":         float64(st.Skipped),
		"sweep.abandoned":       float64(st.Abandoned),
		"sweep.elapsed_seconds": st.ElapsedSeconds,
		"sweep.runs_per_second": st.RunsPerSecond,
	}
	if fs := st.Fleet; fs != nil {
		gauges["fleet.cells"] = float64(fs.Cells)
		gauges["fleet.cells_done"] = float64(fs.Completed)
		gauges["fleet.leases_outstanding"] = float64(fs.LeasesOutstanding)
		gauges["fleet.workers"] = float64(len(fs.Workers))
		gauges["fleet.reclaims"] = float64(fs.Reclaims)
		gauges["fleet.duplicates"] = float64(fs.Duplicates)
		gauges["fleet.late_accepts"] = float64(fs.LateAccepts)
		gauges["fleet.quarantined"] = float64(fs.Quarantined)
		gauges["fleet.digest_conflicts"] = float64(fs.DigestConflicts)
		gauges["fleet.adopted"] = float64(fs.Adopted)
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
	if st.Retried+st.Quarantined+st.Skipped+st.Abandoned > 0 {
		fmt.Fprintf(&b, "retried %d, quarantined %d, skipped %d, abandoned %d\n",
			st.Retried, st.Quarantined, st.Skipped, st.Abandoned)
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
		fmt.Fprintf(&b, "\nfleet: sweep %s, %d/%d cells, %d leases outstanding\n",
			fs.Sweep, fs.Completed, fs.Cells, fs.LeasesOutstanding)
		fmt.Fprintf(&b, "fleet: reclaimed %d, duplicates %d, late accepts %d, quarantined %d, digest conflicts %d\n",
			fs.Reclaims, fs.Duplicates, fs.LateAccepts, fs.Quarantined, fs.DigestConflicts)
		if fs.Adopted > 0 {
			fmt.Fprintf(&b, "fleet: leases adopted from a previous coordinator %d\n", fs.Adopted)
		}
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

// handleEvents serves an SSE stream: one status frame per drained
// outcome, until the client disconnects or the monitor closes.
func (m *Monitor) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	sub := make(chan []byte, 16)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		http.Error(w, "monitor closed", http.StatusServiceUnavailable)
		return
	}
	m.subs[sub] = struct{}{}
	first, _ := json.Marshal(m.statusLocked())
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.subs, sub)
		m.mu.Unlock()
	}()

	fmt.Fprintf(w, "data: %s\n\n", first)
	fl.Flush()
	for {
		select {
		case frame, ok := <-sub:
			if !ok {
				// Monitor closing: the stream ends cleanly after the last
				// flushed frame.
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", frame)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleHealthz answers liveness probes: the monitor is healthy exactly
// while its aggregator accepts outcomes.
func (m *Monitor) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}
