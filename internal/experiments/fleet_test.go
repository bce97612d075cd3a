package experiments

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
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
// and returns it with a teardown that shuts the fleet down cleanly.
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
		wk := fleet.NewWorker(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk.Run()
		}()
	}
	return coord, func() {
		coord.Shutdown()
		wg.Wait()
		srv.Close()
	}
}

// TestFleetFig2ByteIdentical is the PR's acceptance bar: a figure sweep
// distributed over a coordinator and two workers renders byte-identically
// to the single-process run.
func TestFleetFig2ByteIdentical(t *testing.T) {
	ref, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}

	coord, stop := startFleet(t, fleet.Config{LeaseTTL: 10 * time.Second}, 2, fleet.WorkerConfig{})
	defer stop()
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
	defer srv.Close()

	// The victim dies holding its second lease; its heartbeats stop and
	// the lease must be reclaimed for the sweep to finish.
	killed := make(chan struct{})
	victim := fleet.NewWorker(fleet.WorkerConfig{Coordinator: srv.URL, ID: "victim",
		PollInterval: 2 * time.Millisecond, ChaosKillAfter: 2,
		Exit: func(int) { close(killed) }, Log: testLogger(t)})
	survivor := fleet.NewWorker(fleet.WorkerConfig{Coordinator: srv.URL, ID: "survivor",
		PollInterval: 2 * time.Millisecond, Log: testLogger(t)})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); victim.Run() }()
	go func() { defer wg.Done(); survivor.Run() }()

	o := tiny()
	o.Campaign = coord
	got, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-killed:
	default:
		t.Fatal("chaos kill never fired")
	}
	if st := coord.Status(); st.Reclaims < 1 {
		t.Fatalf("reclaims = %d, want >= 1 (the victim's abandoned lease)", st.Reclaims)
	}
	if got.Render() != ref.Render() {
		t.Fatalf("chaos-ridden fleet Fig2 differs from single-process run:\n%s\nvs\n%s",
			got.Render(), ref.Render())
	}
	coord.Shutdown()
	wg.Wait()
}

// TestFleetManifestsAndResume: a fleet campaign writes the same per-run
// manifests a local sweep does (via the shared observer plumbing) and
// removes its restart marker when done, and a local -resume run promotes
// the fleet's manifest directory without re-executing anything.
func TestFleetManifestsAndResume(t *testing.T) {
	dir := t.TempDir()
	coord, stop := startFleet(t, fleet.Config{LeaseTTL: 10 * time.Second, ManifestDir: dir}, 2, fleet.WorkerConfig{})
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
	if _, err := os.Stat(filepath.Join(dir, "campaign-fig2.open")); err == nil {
		t.Fatal("finished campaign left its restart marker")
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
// acceptance bar: the coordinator is chaos-killed mid-sweep while
// workers hold live leases, a fresh coordinator on the same manifest dir
// finds the restart marker, resolves what the manifests prove and holds
// its grants for one lease TTL, the surviving leases are adopted (not
// reclaimed and redone), and the finished figure is byte-identical to
// the single-process run. The fleet runs token-authenticated end-to-end.
func TestFleetCoordinatorCrashRestartByteIdentical(t *testing.T) {
	ref, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Both coordinator incarnations serve behind one URL — the swappable
	// pointer is the test's stand-in for a restarted process reclaiming
	// its listen address — so workers reconnect without reconfiguration.
	var current atomic.Pointer[fleet.Coordinator]
	a := fleet.NewCoordinator(fleet.Config{LeaseTTL: 10 * time.Second, ManifestDir: dir,
		Token: "s3cret", ChaosKillAfter: 2, Exit: func(int) {}, Log: testLogger(t)})
	current.Store(a)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wk := fleet.NewWorker(fleet.WorkerConfig{Coordinator: srv.URL,
			ID: string(rune('a'+i)) + "-worker", Token: "s3cret",
			PollInterval:  2 * time.Millisecond,
			ReconnectBase: 2 * time.Millisecond, ReconnectMax: 10 * time.Millisecond,
			Log: testLogger(t)})
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk.Run()
		}()
	}

	// First incarnation: dies on its second grant, with that lease
	// outstanding on a worker. The interrupted sweep reports its
	// unresolved cells as canceled, not as results.
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
	marker := filepath.Join(dir, "campaign-fig2.open")
	if _, err := os.Stat(marker); err != nil {
		t.Fatalf("crashed campaign left no restart marker: %v", err)
	}

	// Second incarnation: same manifest dir, no chaos.
	b := fleet.NewCoordinator(fleet.Config{LeaseTTL: 10 * time.Second, ManifestDir: dir,
		Token: "s3cret", Log: testLogger(t)})
	oB := tiny()
	oB.Campaign = b
	oB.ManifestDir = dir
	var renderB string
	errCh := make(chan error, 1)
	go func() {
		fig, err := Fig2(oB)
		if err == nil {
			renderB = fig.Render()
		}
		errCh <- err
	}()
	// Swap the URL over to B only once its campaign is published, so the
	// surviving leases are adopted, never answered Gone.
	deadline := time.Now().Add(30 * time.Second)
	for b.Status().Cells == 0 {
		if time.Now().After(deadline) {
			t.Fatal("restarted coordinator never published the campaign")
		}
		time.Sleep(time.Millisecond)
	}
	current.Store(b)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	if renderB != ref.Render() {
		t.Fatalf("post-crash fleet Fig2 differs from single-process run:\n%s\nvs\n%s",
			renderB, ref.Render())
	}
	st := b.Status()
	if st.Adopted < 1 {
		t.Fatalf("adopted = %d, want >= 1 (survivor leases must be adopted, not redone)", st.Adopted)
	}
	if _, err := os.Stat(marker); err == nil {
		t.Fatal("finished campaign left its restart marker")
	}
	b.Shutdown()
	wg.Wait()
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
	complete("worker-b", lb1, &inpg.Results{Runtime: 1, Threads: 4})
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
