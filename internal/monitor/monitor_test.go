package monitor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"inpg"
	"inpg/internal/fleet"
	"inpg/internal/metrics"
	"inpg/internal/runner"
)

// feed pushes a claim+completion pair for run i through the observer.
func feed(obs runner.Observer, worker, i int, err error, snap *metrics.Snapshot) {
	cfg := inpg.DefaultConfig()
	cfg.Seed = int64(i)
	obs(runner.Outcome{Index: i, Worker: worker, Cfg: cfg})
	obs(runner.Outcome{Index: i, Worker: worker, Done: true, Cfg: cfg,
		Err: err, Snapshot: snap, WallSeconds: 0.01})
}

func TestMonitorAggregatesOutcomes(t *testing.T) {
	m := New()
	defer m.Close()
	obs := m.Observer()

	snap := &metrics.Snapshot{Values: []metrics.KV{{Name: "noc.injected", Value: 10}}}
	feed(obs, 0, 0, nil, snap)
	feed(obs, 1, 1, nil, snap)
	feed(obs, 0, 2, errors.New("boom"), nil)
	// Leave run 3 in flight on worker 1.
	cfg := inpg.DefaultConfig()
	obs(runner.Outcome{Index: 3, Worker: 1, Cfg: cfg})
	// A fleet claim that closes without a result, because another
	// worker's report resolved the cell, is not a completion.
	obs(runner.Outcome{Index: 0, Worker: 2, Cfg: cfg})
	obs(runner.Outcome{Index: 0, Worker: 2, Done: true, Status: runner.StatusAbandoned, Cfg: cfg})

	st := m.Status()
	if st.Completed != 3 || st.InFlight != 1 || st.Failed != 1 || st.Abandoned != 1 {
		t.Fatalf("completed %d, in flight %d, failed %d, abandoned %d; want 3/1/1/1",
			st.Completed, st.InFlight, st.Failed, st.Abandoned)
	}
	if st.Counters["noc.injected"] != 20 {
		t.Fatalf("aggregated counter = %d, want 20", st.Counters["noc.injected"])
	}
	if len(st.Workers) != 3 {
		t.Fatalf("workers = %+v", st.Workers)
	}
	var busy *WorkerStatus
	for i := range st.Workers {
		if st.Workers[i].Busy {
			busy = &st.Workers[i]
		}
	}
	if busy == nil || busy.Worker != 1 || busy.Index != 3 || busy.Label == "" {
		t.Fatalf("busy worker = %+v", busy)
	}
	if st.RunsPerSecond <= 0 {
		t.Fatalf("runs/s = %f", st.RunsPerSecond)
	}
}

// TestMonitorObserverConcurrent: runner workers call the Observer
// concurrently while the page is read; every outcome folds exactly once.
func TestMonitorObserverConcurrent(t *testing.T) {
	m := New()
	obs := m.Observer()
	snap := &metrics.Snapshot{Values: []metrics.KV{{Name: "noc.injected", Value: 3}}}
	const workers, runs = 4, 50
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				feed(obs, w, w*runs+i, nil, snap)
			}
		}(w)
	}
	go func() {
		defer wg.Done()
		for i := 0; i < runs; i++ {
			m.Status()
		}
	}()
	wg.Wait()
	st := m.Status()
	if st.Completed != workers*runs || st.InFlight != 0 || st.Counters["noc.injected"] != 3*workers*runs {
		t.Fatalf("completed %d, in flight %d, noc.injected %d; want %d/0/%d",
			st.Completed, st.InFlight, st.Counters["noc.injected"], workers*runs, 3*workers*runs)
	}
}

func TestMonitorHTTPEndpoints(t *testing.T) {
	m := New()
	addr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	feed(m.Observer(), 0, 0, nil, nil)

	// / serves the plain-text progress page.
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	var page strings.Builder
	if _, err := fmt.Fprint(&page, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page.String(), "inpg sweep monitor") ||
		!strings.Contains(page.String(), "completed 1") {
		t.Fatalf("progress page:\n%s", page.String())
	}

	// /debug/pprof/ responds (registered on the monitor's own mux).
	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", resp.StatusCode)
	}

	// The JSON and event-stream views are gone.
	for _, path := range []string{"/vars", "/events"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// readAll drains a response body into a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}

// TestMonitorHealthzAndFleetStatus: /healthz answers liveness probes,
// and an installed fleet provider adds the fleet gauges to /metrics and
// the fleet section to the progress page.
func TestMonitorHealthzAndFleetStatus(t *testing.T) {
	m := New()
	addr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetFleet(func() fleet.Status {
		return fleet.Status{Sweep: "fig2", Cells: 15, Completed: 7, Reclaims: 3,
			Workers: []fleet.WorkerStatus{{ID: "w1", Completed: 7, Leases: 1}}}
	})

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom := readAll(t, resp)
	for _, want := range []string{
		"inpg_fleet_cells 15\n",
		"inpg_fleet_cells_done 7\n",
		"inpg_fleet_reclaims 3\n",
		"inpg_fleet_workers 1\n",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom)
		}
	}

	resp, err = http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	page := readAll(t, resp)
	if !strings.Contains(page, "fleet: sweep fig2, 7/15 cells") ||
		!strings.Contains(page, "fleet worker w1") {
		t.Fatalf("progress page without fleet section:\n%s", page)
	}
}

// TestMonitorGracefulCloseNoLeaks: Close after serving a scrape closes
// the listener and leaves no goroutines behind.
func TestMonitorGracefulCloseNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	m := New()
	addr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{DisableKeepAlives: true}
	client := &http.Client{Transport: tr}
	feed(m.Observer(), 0, 0, nil, nil)
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); !strings.Contains(body, "inpg_sweep_completed 1\n") {
		t.Fatalf("/metrics before close:\n%s", body)
	}
	tr.CloseIdleConnections()

	if err := m.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("post-close connect should fail (listener closed)")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(),
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMonitorPrometheusAndJourneyBreakdown: completed runs' snapshots —
// counter values and histogram count/sum aggregates — surface on
// /metrics in Prometheus text exposition format with sweep progress
// gauges, and journey-traced runs add the per-stage breakdown block to
// the text dashboard.
func TestMonitorPrometheusAndJourneyBreakdown(t *testing.T) {
	m := New()
	addr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	obs := m.Observer()
	snap := &metrics.Snapshot{
		Values: []metrics.KV{{Name: "journey.completed", Value: 5}},
		Histograms: []metrics.HistSummary{
			{Name: "journey.e2e_cycles", Count: 5, Sum: 1000},
			{Name: "journey.stage.stall_cycles", Count: 5, Sum: 600},
			{Name: "journey.stage.directory_cycles", Count: 5, Sum: 400},
		},
	}
	feed(obs, 0, 0, nil, snap)
	feed(obs, 0, 1, nil, snap)

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom := readAll(t, resp)
	for _, want := range []string{
		"# TYPE inpg_journey_completed counter",
		"inpg_journey_completed 10",
		"inpg_journey_e2e_cycles_count 10",
		"inpg_journey_e2e_cycles_sum 2000",
		"inpg_journey_stage_stall_cycles_sum 1200",
		"# TYPE inpg_sweep_completed gauge",
		"inpg_sweep_completed 2",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom)
		}
	}

	resp, err = http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	page := readAll(t, resp)
	if !strings.Contains(page, "lock-journey stage breakdown (10 sampled acquisitions") {
		t.Fatalf("dashboard missing journey breakdown:\n%s", page)
	}
	// stall: 1200 cycles over 10 journeys = 120.0 mean, 60% of e2e.
	if !strings.Contains(page, "stall") || !strings.Contains(page, "120.0") ||
		!strings.Contains(page, "60.0%") {
		t.Fatalf("stage line wrong:\n%s", page)
	}
}

// fleetLines keeps the inpg_fleet_* lines of a /metrics page.
func fleetLines(page string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(page, "\n") {
		if strings.Contains(line, "inpg_fleet_") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// postJSON posts one fleet request and decodes the answer into out.
func postJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorFleetGaugesMatchCoordinator: a monitor fronting a
// coordinator is the fleet's one view. Mid-campaign, with one worker
// holding both cells' leases, the page shows both in flight on that
// worker's fleet line and no runner-slot row (every fleet outcome
// carries worker 0), and /metrics serves the coordinator's Status
// gauges. A fleet completion's telemetry snapshot folds into the
// monitor's counters, and once the campaign is over the gauges still
// match the coordinator.
func TestMonitorFleetGaugesMatchCoordinator(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{LeaseTTL: time.Minute})
	srv := httptest.NewServer(coord)
	defer srv.Close()
	m := New()
	addr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetFleet(coord.Status)

	cfgs := []inpg.Config{inpg.DefaultConfig(), inpg.DefaultConfig()}
	cfgs[1].Seed++
	done := make(chan struct{})
	go func() {
		defer close(done)
		coord.RunCampaign("gauges", cfgs, runner.Policy{Observer: m.Observer()})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for coord.Status().Cells != len(cfgs) {
		if time.Now().After(deadline) {
			t.Fatal("campaign never registered")
		}
		time.Sleep(time.Millisecond)
	}
	var leases [2]fleet.LeaseResponse
	for i := range leases {
		postJSON(t, srv.URL+fleet.PathLease, fleet.LeaseRequest{Worker: "w1"}, &leases[i])
		if leases[i].Lease == nil {
			t.Fatalf("lease %d not granted", i)
		}
	}
	complete := func(l *fleet.Lease, snap *metrics.Snapshot) {
		var resp fleet.CompletionResponse
		postJSON(t, srv.URL+fleet.PathComplete, fleet.CompletionReport{Worker: "w1",
			LeaseID: l.ID, Sweep: l.Sweep, Index: l.Index, Digest: l.Digest,
			OK: true, Res: &inpg.Results{Runtime: 1}, Snapshot: snap}, &resp)
		if !resp.Accepted {
			t.Fatalf("completion of cell %d = %+v", l.Index, resp)
		}
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		return readAll(t, resp)
	}
	// check scrapes /metrics, demands every line in want, and compares
	// its fleet gauges with the coordinator's own Status.
	check := func(when string, want ...string) {
		t.Helper()
		prom := get("/metrics")
		for _, line := range want {
			if !strings.Contains(prom, line) {
				t.Fatalf("/metrics %s missing %q:\n%s", when, line, prom)
			}
		}
		var b strings.Builder
		metrics.WritePrometheus(&b, nil, coord.Status().Gauges())
		if got, want := fleetLines(prom), fleetLines(b.String()); got != want {
			t.Fatalf("fleet gauges %s differ\nmonitor:\n%s\ncoordinator:\n%s", when, got, want)
		}
	}

	page := get("/")
	if !strings.Contains(page, "2 in flight") || !strings.Contains(page, "2 leases held") ||
		strings.Contains(page, "worker  0:") {
		t.Fatalf("page with w1 holding both leases:\n%s", page)
	}
	check("with both leases out", "inpg_fleet_cells 2\n", "inpg_fleet_leases_outstanding 2\n",
		"inpg_fleet_workers 1\n", "inpg_sweep_in_flight 2\n")

	complete(leases[0].Lease, &metrics.Snapshot{
		Values:     []metrics.KV{{Name: "journey.completed", Value: 7}},
		Histograms: []metrics.HistSummary{{Name: "journey.e2e_cycles", Count: 7, Sum: 350}},
	})
	check("mid-campaign", "inpg_fleet_cells_done 1\n", "inpg_fleet_leases_outstanding 1\n",
		"# TYPE inpg_journey_completed counter", "inpg_journey_completed 7\n",
		"inpg_journey_e2e_cycles_count 7\n", "inpg_journey_e2e_cycles_sum 350\n")

	complete(leases[1].Lease, nil)
	<-done
	// With no campaign active, every gauge is still served.
	check("after the campaign", "inpg_fleet_cells 0\n", "inpg_fleet_leases_outstanding 0\n",
		"inpg_journey_completed 7\n", "inpg_sweep_in_flight 0\n", "inpg_sweep_completed 2\n")
}
