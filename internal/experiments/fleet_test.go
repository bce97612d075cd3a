package experiments

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inpg"
	"inpg/internal/fleet"
	"inpg/internal/manifest"
	"inpg/internal/runner"
)

// testLogger routes structured fleet logs into the test log.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// startFleet serves a coordinator over loopback HTTP with n real workers
// and returns it with a teardown that shuts the fleet down cleanly. The
// teardown also runs as the test's cleanup, so a failing test never
// leaves a worker polling (and logging through t) after it ends.
func startFleet(t *testing.T, cfg fleet.Config, n int, worker fleet.WorkerConfig) (*fleet.Coordinator, func()) {
	t.Helper()
	coord := fleet.NewCoordinator(cfg)
	srv := httptest.NewServer(coord)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := worker
		w.Coordinator = srv.URL
		w.ID = string(rune('a'+i)) + "-worker"
		w.PollInterval = 2 * time.Millisecond
		w.Log = testLogger(t)
		runWorker(&wg, fleet.NewWorker(w))
	}
	var once sync.Once
	stop := func() {
		once.Do(func() {
			coord.Shutdown()
			wg.Wait()
			srv.Close()
		})
	}
	t.Cleanup(stop)
	return coord, stop
}

// runWorker runs w in the background under wg.
func runWorker(wg *sync.WaitGroup, w *fleet.Worker) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run()
	}()
}

// stopWorkers registers the test's fleet teardown: shutdown orders the
// fleet down, wg's workers are waited for, then srv closes. A worker
// exits only on a Shutdown answer, so the server must outlive it.
func stopWorkers(t *testing.T, srv *httptest.Server, wg *sync.WaitGroup, shutdown func()) {
	t.Cleanup(func() {
		shutdown()
		wg.Wait()
		srv.Close()
	})
}

// TestFleetFig2ByteIdentical is the PR's acceptance bar: a figure sweep
// distributed over a coordinator and two workers renders byte-identically
// to the single-process run.
func TestFleetFig2ByteIdentical(t *testing.T) {
	ref, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}

	coord, _ := startFleet(t, fleet.Config{LeaseTTL: 10 * time.Second}, 2, fleet.WorkerConfig{})
	o := tiny()
	o.Campaign = coord
	got, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != ref.Render() {
		t.Fatalf("fleet Fig2 differs from single-process run:\n%s\nvs\n%s", got.Render(), ref.Render())
	}
}

// TestFleetChaosKillByteIdentical kills one worker mid-lease and demands
// the sweep still complete — through lease reclaim onto the survivor —
// with figure bytes unchanged, plus at least one reclaim on the books.
func TestFleetChaosKillByteIdentical(t *testing.T) {
	ref, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}

	coord := fleet.NewCoordinator(fleet.Config{LeaseTTL: 300 * time.Millisecond, Log: testLogger(t)})
	srv := httptest.NewServer(coord)
	var wg sync.WaitGroup
	stopWorkers(t, srv, &wg, coord.Shutdown)

	// The victim dies holding its second lease; its heartbeats stop and
	// the lease must be reclaimed for the sweep to finish. It works alone
	// until then, so it reaches that second lease whatever the timing;
	// the survivor joins once it is dead.
	killed := make(chan struct{})
	runWorker(&wg, fleet.NewWorker(fleet.WorkerConfig{Coordinator: srv.URL, ID: "victim",
		PollInterval: 2 * time.Millisecond, ChaosKillAfter: 2,
		Exit: func(int) { close(killed) }, Log: testLogger(t)}))

	o := tiny()
	o.Campaign = coord
	type result struct {
		fig *Fig2Result
		err error
	}
	ch := make(chan result, 1)
	go func() {
		fig, err := Fig2(o)
		ch <- result{fig, err}
	}()
	select {
	case <-killed:
	case <-time.After(30 * time.Second):
		t.Fatal("chaos kill never fired")
	}
	runWorker(&wg, fleet.NewWorker(fleet.WorkerConfig{Coordinator: srv.URL, ID: "survivor",
		PollInterval: 2 * time.Millisecond, Log: testLogger(t)}))
	r := <-ch
	got, err := r.fig, r.err
	if err != nil {
		t.Fatal(err)
	}
	if st := coord.Status(); st.Reclaims < 1 {
		t.Fatalf("reclaims = %d, want >= 1 (the victim's abandoned lease)", st.Reclaims)
	}
	if got.Render() != ref.Render() {
		t.Fatalf("chaos-ridden fleet Fig2 differs from single-process run:\n%s\nvs\n%s",
			got.Render(), ref.Render())
	}
}

// TestFleetManifestsAndResume: a fleet campaign writes the same per-run
// manifests a local sweep does (via the shared observer plumbing), and a
// local -resume run promotes the fleet's manifest directory without
// re-executing anything.
func TestFleetManifestsAndResume(t *testing.T) {
	dir := t.TempDir()
	coord, stop := startFleet(t, fleet.Config{LeaseTTL: 10 * time.Second}, 2, fleet.WorkerConfig{})
	o := tiny()
	o.Campaign = coord
	o.ManifestDir = dir
	ref, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	stop()

	prior, warnings, err := manifest.ScanDir(dir, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("scan warnings: %v", warnings)
	}
	if len(prior) == 0 {
		t.Fatal("fleet campaign wrote no manifests")
	}
	total := 0
	for _, ws := range coord.Status().Workers {
		total += ws.Completed
	}
	if total != len(prior) {
		t.Fatalf("worker completions %+v, want %d total (one per manifest)", coord.Status().Workers, len(prior))
	}

	// Resume locally from the fleet's directory: every cell is a skip.
	var mu sync.Mutex
	claimed := 0
	o2 := tiny()
	o2.Resume = dir
	o2.ManifestDir = dir
	o2.Observer = func(out runner.Outcome) {
		if !out.Done {
			mu.Lock()
			claimed++
			mu.Unlock()
		}
	}
	got, err := Fig2(o2)
	if err != nil {
		t.Fatal(err)
	}
	if claimed != 0 {
		t.Fatalf("resume from fleet manifests re-executed %d cells, want 0", claimed)
	}
	if got.Render() != ref.Render() {
		t.Fatalf("resumed figure differs from fleet run")
	}
}

// TestFleetCoordinatorCrashRestartByteIdentical is the crash-safety
// acceptance bar: the coordinator is chaos-killed on its first grant,
// before any manifest exists, while a worker runs that lease. A second
// coordinator restarts the sweep with -resume on the same (by then
// created, still empty) manifest directory. Whatever the survivor's
// report meets there — a late accept or a duplicate — the finished
// figure is byte-identical to the single-process run, and every claim
// the restarted sweep opens is closed by exactly one Done. The fleet
// runs token-authenticated end-to-end.
func TestFleetCoordinatorCrashRestartByteIdentical(t *testing.T) {
	ref, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}

	// Not created yet: the first sweep creates it.
	dir := filepath.Join(t.TempDir(), "crash")
	// Both coordinators serve behind one URL — the swappable pointer is
	// the test's stand-in for a restarted process reclaiming its listen
	// address — so workers reconnect without reconfiguration.
	var current atomic.Pointer[fleet.Coordinator]
	a := fleet.NewCoordinator(fleet.Config{Token: "s3cret", ChaosKillAfter: 1,
		Exit: func(int) {}, Log: testLogger(t)})
	current.Store(a)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	var wg sync.WaitGroup
	// The teardown serves a fresh, shut-down coordinator: a crashed one
	// answers nothing but 503, which workers retry forever.
	stopWorkers(t, srv, &wg, func() {
		down := fleet.NewCoordinator(fleet.Config{Token: "s3cret"})
		down.Shutdown()
		current.Store(down)
	})
	for i := 0; i < 2; i++ {
		runWorker(&wg, fleet.NewWorker(fleet.WorkerConfig{Coordinator: srv.URL,
			ID: string(rune('a'+i)) + "-worker", Token: "s3cret",
			PollInterval:  2 * time.Millisecond,
			ReconnectBase: 2 * time.Millisecond, ReconnectMax: 10 * time.Millisecond,
			Log: testLogger(t)}))
	}

	// First coordinator: dies on its first grant. The interrupted sweep
	// reports its unresolved cells as canceled, not as results.
	oA := tiny()
	oA.Campaign = a
	oA.ManifestDir = dir
	figA, err := Fig2(oA)
	if err != nil {
		t.Fatal(err)
	}
	if len(figA.Missing) == 0 {
		t.Fatal("crashed campaign reported no missing cells")
	}
	for _, m := range figA.Missing {
		if m.Cause != runner.CauseCanceled {
			t.Fatalf("missing cell %d cause = %s, want canceled", m.Index, m.Cause)
		}
	}

	// Restart: a second coordinator, -resume on the same directory.
	b := fleet.NewCoordinator(fleet.Config{Token: "s3cret", Log: testLogger(t)})
	current.Store(b)
	var mu sync.Mutex
	open := map[int]int{}
	oB := tiny()
	oB.Campaign = b
	oB.Resume = dir
	oB.ManifestDir = dir
	oB.Observer = func(o runner.Outcome) {
		if o.Status == runner.StatusSkipped {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case !o.Done:
			open[o.Index]++
		case open[o.Index] == 0:
			t.Errorf("cell %d: Done (%s) without an open claim", o.Index, o.Status)
		default:
			open[o.Index]--
		}
	}
	figB, err := Fig2(oB)
	if err != nil {
		t.Fatal(err)
	}
	if got := figB.Render(); got != ref.Render() {
		t.Fatalf("restarted fleet Fig2 differs from single-process run:\n%s\nvs\n%s", got, ref.Render())
	}
	mu.Lock()
	defer mu.Unlock()
	for i, n := range open {
		if n != 0 {
			t.Errorf("cell %d: %d claims never closed", i, n)
		}
	}
}

// TestFleetDuplicateKeepsAcceptedManifest: cell 0 is reclaimed from
// worker A and re-leased to worker B; A's late completion is accepted and
// written as the cell's manifest. B's duplicate then reaches the observer
// as an outcome with neither results nor an error, which must not replace
// A's manifest (an empty "ok" manifest fails validation on the next scan).
func TestFleetDuplicateKeepsAcceptedManifest(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	coord := fleet.NewCoordinator(fleet.Config{LeaseTTL: time.Minute, Now: clock, Log: testLogger(t)})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	cfgs := make([]inpg.Config, 2)
	for i := range cfgs {
		cfgs[i] = inpg.DefaultConfig()
		cfgs[i].MeshWidth, cfgs[i].MeshHeight = 2, 2
		cfgs[i].Threads, cfgs[i].CSPerThread = 4, 2
		cfgs[i].Seed = int64(100 + i)
	}
	sys, err := inpg.New(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	res0, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	o := Options{ManifestDir: dir}
	done := make(chan struct{})
	go func() {
		defer close(done)
		coord.RunCampaign("dup", cfgs, runner.Policy{Observer: o.observer("dup")})
	}()
	for coord.Status().Cells != len(cfgs) {
		time.Sleep(time.Millisecond)
	}

	post := func(path string, in, out any) {
		t.Helper()
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: status %d: %v", path, resp.StatusCode, err)
		}
	}
	lease := func(worker string) *fleet.Lease {
		var resp fleet.LeaseResponse
		post(fleet.PathLease, fleet.LeaseRequest{Worker: worker}, &resp)
		if resp.Lease == nil {
			t.Fatalf("%s got no lease", worker)
		}
		return resp.Lease
	}
	complete := func(worker string, l *fleet.Lease, res *inpg.Results) fleet.CompletionResponse {
		var resp fleet.CompletionResponse
		post(fleet.PathComplete, fleet.CompletionReport{Worker: worker, LeaseID: l.ID,
			Sweep: l.Sweep, Index: l.Index, Digest: l.Digest, OK: true, Res: res, WallSeconds: 0.01}, &resp)
		return resp
	}

	la := lease("worker-a")
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	lb1 := lease("worker-b") // the lazy reclaim re-queues cell 0 behind cell 1
	lb0 := lease("worker-b")
	if la.Index != 0 || lb1.Index != 1 || lb0.Index != 0 {
		t.Fatalf("lease order a=%d b=%d,%d, want 0, then 1 and 0", la.Index, lb1.Index, lb0.Index)
	}
	if resp := complete("worker-a", la, res0); !resp.Accepted {
		t.Fatalf("late completion = %+v, want accepted", resp)
	}
	if resp := complete("worker-b", lb0, res0); !resp.Duplicate {
		t.Fatalf("second completion = %+v, want duplicate", resp)
	}
	complete("worker-b", lb1, &inpg.Results{Summary: inpg.Summary{Runtime: 1, Threads: 4}})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("campaign did not finish")
	}

	prior, warnings, err := manifest.ScanDir(dir, "dup")
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("scan warnings: %v", warnings)
	}
	if m := prior[0]; m == nil || m.Summary.Runtime != res0.Runtime {
		t.Fatalf("cell 0 manifest = %+v, want worker A's runtime %d", m, res0.Runtime)
	}
}

// TestFleetFailedCellMatchesLocal: a cell that fails on the fleet settles
// exactly as it does in the local pool. Fig 2 with a deadline-chaos cell
// renders byte-identically, MISSING line included, through a coordinator
// and a real worker and locally, and the fleet claims the failing cell
// once: the failed report settles it.
func TestFleetFailedCellMatchesLocal(t *testing.T) {
	o := tiny()
	o.ChaosDeadlineCells = []int{2}
	ref, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Missing) != 1 || ref.Missing[0].Cause != runner.CauseTimeout {
		t.Fatalf("local missing = %v, want cell 2 timed out", ref.Missing)
	}

	coord, _ := startFleet(t, fleet.Config{LeaseTTL: 10 * time.Second, Log: testLogger(t)}, 1, fleet.WorkerConfig{})
	var claims atomic.Int32
	o.Campaign = coord
	o.Observer = func(out runner.Outcome) {
		if out.Index == 2 && !out.Done {
			claims.Add(1)
		}
	}
	got, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != ref.Render() {
		t.Fatalf("fleet Fig2 with a failed cell differs from the local run:\n%s\nvs\n%s", got.Render(), ref.Render())
	}
	if n := claims.Load(); n != 1 {
		t.Fatalf("fleet claimed the failing cell %d times, want 1", n)
	}
}

// localCampaign is a CampaignRunner that runs each sweep on the local
// pool and counts the sweeps it was handed.
type localCampaign struct{ sweeps atomic.Int32 }

func (l *localCampaign) RunCampaign(_ string, cfgs []inpg.Config, p runner.Policy) ([]*inpg.Results, []*runner.RunError) {
	l.sweeps.Add(1)
	return runner.RunResilient(cfgs, p)
}

// TestCampaignRefusesChaosPanic: the panic hook cannot cross the wire to
// a fleet worker, so a campaign sweep with chaos panic cells fails as an
// infrastructure error before anything is dispatched, instead of running
// the cells clean.
func TestCampaignRefusesChaosPanic(t *testing.T) {
	camp := &localCampaign{}
	var outcomes atomic.Int32
	o := tiny()
	o.Campaign = camp
	o.ChaosPanicCells = []int{1}
	o.Observer = func(runner.Outcome) { outcomes.Add(1) }
	results, missing, err := runAll(o, "fig2", []inpg.Config{chaosCell(1), chaosCell(2)})
	if err == nil {
		t.Fatalf("campaign sweep with chaos panic cells ran: results %v, missing %v", results, missing)
	}
	if n := camp.sweeps.Load(); n != 0 {
		t.Fatalf("campaign runner was handed %d sweeps, want 0", n)
	}
	if n := outcomes.Load(); n != 0 {
		t.Fatalf("observer saw %d outcomes, want 0", n)
	}
}
