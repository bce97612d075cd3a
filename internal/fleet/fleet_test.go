package fleet

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"inpg"
	"inpg/internal/manifest"
	"inpg/internal/metrics"
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

// clock is a manually advanced time source for deterministic lease
// expiry tests.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1_700_000_000, 0)} }

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// tinyCfg is a cheap real configuration (a 2×2 mesh finishes in
// milliseconds) for tests that actually execute cells.
func tinyCfg(seed int64) inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 2, 2
	cfg.Threads = 4
	cfg.CSPerThread = 2
	cfg.Seed = seed
	return cfg
}

func tinyCfgs(n int) []inpg.Config {
	out := make([]inpg.Config, n)
	for i := range out {
		out[i] = tinyCfg(int64(100 + i))
	}
	return out
}

// startCampaign launches RunCampaign on a goroutine and returns a waiter;
// it blocks until the coordinator has registered the campaign so tests
// can immediately start leasing.
func startCampaign(t *testing.T, c *Coordinator, sweep string, cfgs []inpg.Config, p runner.Policy) func() ([]*inpg.Results, []*runner.RunError) {
	t.Helper()
	type out struct {
		res  []*inpg.Results
		errs []*runner.RunError
	}
	ch := make(chan out, 1)
	go func() {
		res, errs := c.RunCampaign(sweep, cfgs, p)
		ch <- out{res, errs}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Status().Cells != len(cfgs) {
		if time.Now().After(deadline) {
			t.Fatal("campaign never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return func() ([]*inpg.Results, []*runner.RunError) {
		select {
		case o := <-ch:
			return o.res, o.errs
		case <-time.After(30 * time.Second):
			t.Fatal("campaign did not finish")
			return nil, nil
		}
	}
}

// fakeWorker drives the coordinator's wire protocol by hand, so tests
// control exactly when leases, heartbeats and completions happen.
type fakeWorker struct {
	t   *testing.T
	url string
	id  string
}

func (f *fakeWorker) post(path string, in, out any) int {
	f.t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		f.t.Fatal(err)
	}
	resp, err := http.Post(f.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			f.t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func (f *fakeWorker) lease() *Lease {
	var resp LeaseResponse
	f.post(PathLease, LeaseRequest{Worker: f.id}, &resp)
	return resp.Lease
}

func (f *fakeWorker) heartbeat(l *Lease) HeartbeatResponse {
	var resp HeartbeatResponse
	f.post(PathHeartbeat, HeartbeatRequest{Worker: f.id, LeaseID: l.ID,
		Sweep: l.Sweep, Index: l.Index, Digest: l.Digest}, &resp)
	return resp
}

// complete reports a lease finished with a recognizable fake result.
func (f *fakeWorker) complete(l *Lease, ok bool, runtime uint64) (CompletionResponse, int) {
	rep := CompletionReport{Worker: f.id, LeaseID: l.ID, Sweep: l.Sweep,
		Index: l.Index, Digest: l.Digest, OK: ok, WallSeconds: 0.01}
	if ok {
		rep.Res = &inpg.Results{Runtime: runtime}
	} else {
		rep.Error = "injected failure"
		rep.Cause = string(runner.CauseError)
	}
	var resp CompletionResponse
	status := f.post(PathComplete, rep, &resp)
	return resp, status
}

// TestHeartbeatJustAfterExpiry: a heartbeat that arrives after the lease
// deadline — even before the periodic reclaimer ran — finds the lease
// gone and the cell back in the queue; the original holder's eventual
// completion is deduplicated after another worker resolves the cell. A
// lease this coordinator granted is never adopted back, even though its
// cell is pending again under the same digest.
func TestHeartbeatJustAfterExpiry(t *testing.T) {
	clk := newClock()
	dir := t.TempDir()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, ManifestDir: dir, Now: clk.Now})
	srv := httptest.NewServer(c)
	defer srv.Close()
	// Two cells so the duplicate arrives while the campaign is active.
	cfgs := tinyCfgs(2)
	wait := startCampaign(t, c, "hb", cfgs, manifestPolicy(t, dir, "hb"))

	a := &fakeWorker{t: t, url: srv.URL, id: "worker-a"}
	b := &fakeWorker{t: t, url: srv.URL, id: "worker-b"}

	la := a.lease()
	if la == nil || la.Index != 0 {
		t.Fatalf("lease = %+v", la)
	}
	if hb := a.heartbeat(la); !hb.OK {
		t.Fatalf("live heartbeat = %+v", hb)
	}
	clk.Advance(time.Minute + time.Second)
	if hb := a.heartbeat(la); !hb.Gone || hb.OK {
		t.Fatalf("post-expiry heartbeat = %+v, want gone", hb)
	}
	if hb := a.heartbeat(la); !hb.Gone || hb.OK {
		t.Fatalf("heartbeat on the reclaimed lease = %+v, want gone", hb)
	}
	if st := c.Status(); st.Reclaims != 1 || st.Adopted != 0 {
		t.Fatalf("reclaims = %d adopted = %d, want 1/0", st.Reclaims, st.Adopted)
	}

	// The reclaimed cell re-queues behind the untouched cell 1, so b
	// drains the queue holding both leases at once.
	lb1 := b.lease()
	if lb1 == nil || lb1.Index != 1 {
		t.Fatalf("first lease after reclaim = %+v, want cell 1", lb1)
	}
	lb0 := b.lease()
	if lb0 == nil || lb0.Index != 0 || lb0.ID == la.ID {
		t.Fatalf("re-dispatched lease = %+v (original %s)", lb0, la.ID)
	}
	if resp, _ := b.complete(lb0, true, 222); !resp.Accepted {
		t.Fatalf("fresh completion = %+v", resp)
	}
	// The expired holder reports in anyway: dropped as a duplicate.
	if resp, _ := a.complete(la, true, 111); !resp.Duplicate || resp.Accepted {
		t.Fatalf("stale completion = %+v, want duplicate", resp)
	}
	b.complete(lb1, true, 333)

	res, errs := wait()
	if errs[0] != nil || res[0] == nil || res[0].Runtime != 222 {
		t.Fatalf("campaign result = %+v err %v, want worker-b's write to win", res[0], errs[0])
	}
	st := c.Status()
	completed := map[string]int{}
	for _, ws := range st.Workers {
		completed[ws.ID] = ws.Completed
	}
	if st.Reclaims != 1 || st.Duplicates != 1 || completed["worker-b"] != 2 ||
		completed["worker-a"] != 0 {
		t.Fatalf("status = %+v", st)
	}
	ms, _, err := manifest.ScanDir(dir, "hb")
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if m := ms[i]; m == nil || m.Status != manifest.StatusOK || m.ConfigDigest != cfg.Digest() {
			t.Fatalf("cell %d manifest = %+v, want OK under digest %s", i, m, cfg.Digest())
		}
	}
	if ms[0].Summary.Runtime != 222 {
		t.Fatalf("cell 0 manifest runtime = %d, want worker-b's 222", ms[0].Summary.Runtime)
	}
}

// TestLateCompletionAfterReclaimWins: two workers race the same digest —
// the reclaimed original finishes first, its digest still matches, so it
// is accepted (late) and the re-dispatched worker's result is dropped.
func TestLateCompletionAfterReclaimWins(t *testing.T) {
	clk := newClock()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, Now: clk.Now})
	srv := httptest.NewServer(c)
	defer srv.Close()
	wait := startCampaign(t, c, "race", tinyCfgs(1), runner.Policy{})

	a := &fakeWorker{t: t, url: srv.URL, id: "worker-a"}
	b := &fakeWorker{t: t, url: srv.URL, id: "worker-b"}

	la := a.lease()
	clk.Advance(2 * time.Minute)
	lb := b.lease() // lazy reclaim happens on this poll
	if lb == nil || lb.Index != 0 {
		t.Fatalf("lease after reclaim = %+v", lb)
	}
	// The original worker gets there first: late but digest-matched.
	if resp, _ := a.complete(la, true, 111); !resp.Accepted {
		t.Fatalf("late completion = %+v, want accepted", resp)
	}
	if resp, _ := b.complete(lb, true, 222); !resp.Duplicate {
		t.Fatalf("second completion = %+v, want duplicate", resp)
	}

	res, errs := wait()
	if errs[0] != nil || res[0] == nil || res[0].Runtime != 111 {
		t.Fatalf("result = %+v err %v, want the first (late) write", res[0], errs[0])
	}
	st := c.Status()
	if st.Reclaims != 1 || st.LateAccepts != 1 || st.Duplicates != 1 {
		t.Fatalf("status = %+v", st)
	}
}

// TestDigestConflictRejected: a completion naming the wrong digest is
// rejected with 409 and does not resolve the cell.
func TestDigestConflictRejected(t *testing.T) {
	c := NewCoordinator(Config{})
	srv := httptest.NewServer(c)
	defer srv.Close()
	wait := startCampaign(t, c, "conflict", tinyCfgs(1), runner.Policy{})

	a := &fakeWorker{t: t, url: srv.URL, id: "worker-a"}
	l := a.lease()
	bad := *l
	bad.Digest = "deadbeef"
	if _, status := a.complete(&bad, true, 666); status != http.StatusConflict {
		t.Fatalf("conflicting completion status = %d, want 409", status)
	}
	if st := c.Status(); st.DigestConflicts != 1 || st.Completed != 0 {
		t.Fatalf("status after conflict = %+v", st)
	}
	if resp, _ := a.complete(l, true, 42); !resp.Accepted {
		t.Fatalf("correct completion = %+v", resp)
	}
	res, errs := wait()
	if errs[0] != nil || res[0] == nil || res[0].Runtime != 42 {
		t.Fatalf("result = %+v err %v", res[0], errs[0])
	}
}

// TestQuarantineAfterDistinctWorkerFailures: two different workers
// failing the same digest quarantines the cell with the final typed
// error; the campaign still completes.
func TestQuarantineAfterDistinctWorkerFailures(t *testing.T) {
	dir := t.TempDir()
	c := NewCoordinator(Config{QuarantineAfter: 2, ManifestDir: dir})
	srv := httptest.NewServer(c)
	defer srv.Close()
	cfgs := tinyCfgs(2)
	wait := startCampaign(t, c, "quar", cfgs, manifestPolicy(t, dir, "quar"))

	a := &fakeWorker{t: t, url: srv.URL, id: "worker-a"}
	b := &fakeWorker{t: t, url: srv.URL, id: "worker-b"}

	la := a.lease()
	if resp, _ := a.complete(la, false, 0); resp.Accepted != true {
		t.Fatalf("failure report = %+v", resp)
	}
	// The failed cell is re-queued behind cell 1.
	lb := b.lease()
	if lb.Index != 1 {
		t.Fatalf("lease index = %d, want 1", lb.Index)
	}
	b.complete(lb, true, 7)
	lb2 := b.lease()
	if lb2 == nil || lb2.Index != la.Index {
		t.Fatalf("re-dispatched lease = %+v, want cell %d", lb2, la.Index)
	}
	b.complete(lb2, false, 0)

	res, errs := wait()
	if errs[0] == nil || errs[0].Cause != runner.CauseError {
		t.Fatalf("quarantined cell error = %+v", errs[0])
	}
	if res[0] != nil || res[1] == nil {
		t.Fatalf("results = %v / %v", res[0], res[1])
	}
	if st := c.Status(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	ms, _, err := manifest.ScanDir(dir, "quar")
	if err != nil {
		t.Fatal(err)
	}
	if m := ms[la.Index]; m == nil || m.Status != manifest.StatusFailed || m.Cause != string(runner.CauseError) {
		t.Fatalf("quarantined cell manifest = %+v, want a failed run", m)
	}
	if m := ms[1]; m == nil || m.Status != manifest.StatusOK {
		t.Fatalf("cell 1 manifest = %+v, want OK", m)
	}
}

// TestLateFailureKeepsCurrentHolder: A's lease on the only cell expires
// and the cell is granted to B; then A's failure report arrives. It is a
// quarantine vote only: the cell stays with B, so C's poll gets no third
// dispatch, no outcome is emitted for it, and B's result is accepted on
// time.
func TestLateFailureKeepsCurrentHolder(t *testing.T) {
	clk := newClock()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, Now: clk.Now, Log: testLogger(t)})
	srv := httptest.NewServer(c)
	defer srv.Close()
	var mu sync.Mutex
	retrying := 0
	p := runner.Policy{Observer: func(o runner.Outcome) {
		if o.Status == runner.StatusRetrying {
			mu.Lock()
			retrying++
			mu.Unlock()
		}
	}}
	wait := startCampaign(t, c, "late", tinyCfgs(1), p)

	a := &fakeWorker{t: t, url: srv.URL, id: "worker-a"}
	b := &fakeWorker{t: t, url: srv.URL, id: "worker-b"}
	cw := &fakeWorker{t: t, url: srv.URL, id: "worker-c"}

	la := a.lease()
	clk.Advance(time.Minute + time.Second)
	lb := b.lease() // lazy reclaim of A's lease
	if lb == nil || lb.Index != 0 {
		t.Fatalf("lease after reclaim = %+v", lb)
	}
	if resp, _ := a.complete(la, false, 0); !resp.Accepted {
		t.Fatalf("late failure report = %+v", resp)
	}
	if lc := cw.lease(); lc != nil {
		t.Fatalf("cell held by worker-b dispatched again: %+v", lc)
	}
	if resp, _ := b.complete(lb, true, 42); !resp.Accepted {
		t.Fatalf("current holder's completion = %+v", resp)
	}

	res, errs := wait()
	if errs[0] != nil || res[0] == nil || res[0].Runtime != 42 {
		t.Fatalf("result = %+v err %v, want worker-b's", res[0], errs[0])
	}
	st := c.Status()
	if st.Reclaims != 1 || st.LateAccepts != 0 || st.Duplicates != 0 {
		t.Fatalf("status = %+v", st)
	}
	failed := map[string]int{}
	for _, ws := range st.Workers {
		failed[ws.ID] = ws.Failed
	}
	if failed["worker-a"] != 1 {
		t.Fatalf("worker-a failure votes = %d, want 1", failed["worker-a"])
	}
	mu.Lock()
	defer mu.Unlock()
	if retrying != 1 {
		t.Fatalf("retrying outcomes = %d, want 1 (the reclaim only)", retrying)
	}
}

// TestWorkerFleetMatchesLocalRun: two real workers executing real cells
// produce exactly the results a local RunResilient produces — the fleet's
// bit-identity contract.
func TestWorkerFleetMatchesLocalRun(t *testing.T) {
	cfgs := tinyCfgs(6)
	localRes, localErrs := runner.RunResilient(cfgs, runner.Policy{Workers: 2})
	for i, e := range localErrs {
		if e != nil {
			t.Fatalf("local cell %d failed: %v", i, e)
		}
	}

	c := NewCoordinator(Config{LeaseTTL: 5 * time.Second})
	srv := httptest.NewServer(c)
	defer srv.Close()
	wait := startCampaign(t, c, "fleet", cfgs, runner.Policy{})

	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2"} {
		w := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: id,
			PollInterval: 2 * time.Millisecond, Log: testLogger(t)})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run()
		}()
	}

	res, errs := wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("fleet cell %d failed: %v", i, errs[i])
		}
		if !reflect.DeepEqual(res[i], localRes[i]) {
			t.Fatalf("fleet cell %d diverges from local run:\n%+v\nvs\n%+v", i, res[i], localRes[i])
		}
	}
	st := c.Status()
	if len(st.Workers) != 2 {
		t.Fatalf("fleet workers = %+v", st.Workers)
	}
	c.Shutdown()
	wg.Wait() // workers observe the shutdown answer and exit
}

// TestWorkerChaosKillTriggersReclaim: a worker dying while holding a
// lease (chaos kill) loses its heartbeats; the lease expires, the cell is
// re-dispatched to a survivor, and the campaign completes with results
// identical to a clean local run.
func TestWorkerChaosKillTriggersReclaim(t *testing.T) {
	cfgs := tinyCfgs(3)
	localRes, _ := runner.RunResilient(cfgs, runner.Policy{Workers: 1})

	c := NewCoordinator(Config{LeaseTTL: 100 * time.Millisecond})
	srv := httptest.NewServer(c)
	defer srv.Close()
	wait := startCampaign(t, c, "kill", cfgs, runner.Policy{})

	killed := make(chan struct{})
	victim := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "victim",
		PollInterval: 2 * time.Millisecond, ChaosKillAfter: 1,
		Exit: func(int) { close(killed) }, Log: testLogger(t)})
	victimDone := make(chan struct{})
	go func() {
		victim.Run()
		close(victimDone)
	}()
	<-killed // the victim died holding its first lease
	<-victimDone

	survivor := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "survivor",
		PollInterval: 2 * time.Millisecond, Log: testLogger(t)})
	done := make(chan struct{})
	go func() {
		survivor.Run()
		close(done)
	}()

	res, errs := wait()
	for i := range cfgs {
		if errs[i] != nil || res[i] == nil {
			t.Fatalf("cell %d: res %v err %v", i, res[i], errs[i])
		}
		if !reflect.DeepEqual(res[i], localRes[i]) {
			t.Fatalf("cell %d diverges after chaos kill", i)
		}
	}
	if st := c.Status(); st.Reclaims < 1 {
		t.Fatalf("reclaims = %d, want >= 1 (the victim's lease)", st.Reclaims)
	}
	c.Shutdown()
	<-done
}

// TestWorkerChaosDropResendsAndDedups: with every completion ack dropped
// once, each cell's report is delivered twice; the first write wins and
// every resend is counted as a duplicate, with results unaffected.
func TestWorkerChaosDropResendsAndDedups(t *testing.T) {
	cfgs := tinyCfgs(3)
	c := NewCoordinator(Config{LeaseTTL: 5 * time.Second})
	srv := httptest.NewServer(c)
	defer srv.Close()
	wait := startCampaign(t, c, "drop", cfgs, runner.Policy{})

	w := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "dropper",
		PollInterval: 2 * time.Millisecond, ChaosDropRate: 1, Log: testLogger(t)})
	done := make(chan struct{})
	go func() {
		w.Run()
		close(done)
	}()

	res, errs := wait()
	for i := range cfgs {
		if errs[i] != nil || res[i] == nil {
			t.Fatalf("cell %d: res %v err %v", i, res[i], errs[i])
		}
	}
	c.Shutdown()
	<-done // the last resend is delivered before the worker exits
	if st := c.Status(); st.Duplicates != len(cfgs) {
		t.Fatalf("duplicates = %d, want %d (one resend per cell)", st.Duplicates, len(cfgs))
	}
}

// TestWorkerDrainFinishesInFlightCell: Drain during a leased cell lets
// the cell finish and be delivered, then the worker exits without taking
// more work.
func TestWorkerDrainFinishesInFlightCell(t *testing.T) {
	cfgs := tinyCfgs(1)
	c := NewCoordinator(Config{LeaseTTL: 5 * time.Second})
	srv := httptest.NewServer(c)
	defer srv.Close()

	var w *Worker
	claimed := make(chan struct{})
	var once sync.Once
	p := runner.Policy{Observer: func(o runner.Outcome) {
		if o.Status == runner.StatusRunning {
			once.Do(func() { close(claimed) })
		}
	}}
	wait := startCampaign(t, c, "drain", cfgs, p)

	w = NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "drainer",
		PollInterval: 2 * time.Millisecond, Log: testLogger(t)})
	done := make(chan struct{})
	go func() {
		w.Run()
		close(done)
	}()
	<-claimed // the worker holds the lease (it may or may not have started executing)
	w.Drain()

	res, errs := wait()
	if errs[0] != nil || res[0] == nil {
		t.Fatalf("drained worker's in-flight cell lost: res %v err %v", res[0], errs[0])
	}
	select {
	case <-done: // the worker exited on its own — no Shutdown required
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker never exited")
	}
	if w.Completed() != 1 {
		t.Fatalf("completed = %d, want 1", w.Completed())
	}
}

// TestCoordinatorMetricsEndpoint: worker heartbeats carry metric
// snapshots that surface as live gauges, accepted completions fold into
// cumulative counters, and both render on /metrics in Prometheus text
// exposition format alongside the fleet dispatch gauges.
func TestCoordinatorMetricsEndpoint(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Minute})
	srv := httptest.NewServer(c)
	defer srv.Close()
	cfgs := tinyCfgs(1)
	wait := startCampaign(t, c, "prom", cfgs, runner.Policy{})

	w := &fakeWorker{t: t, url: srv.URL, id: "worker-m"}
	l := w.lease()
	if l == nil {
		t.Fatal("no lease")
	}
	snap := &metrics.Snapshot{
		Values:     []metrics.KV{{Name: "journey.completed", Value: 7}},
		Histograms: []metrics.HistSummary{{Name: "journey.e2e_cycles", Count: 7, Sum: 350}},
	}
	var hb HeartbeatResponse
	w.post(PathHeartbeat, HeartbeatRequest{Worker: w.id, LeaseID: l.ID, Snapshot: snap}, &hb)
	if !hb.OK {
		t.Fatalf("heartbeat = %+v", hb)
	}

	page := func() string {
		resp, err := http.Get(srv.URL + PathMetrics)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	// Before any completion: the heartbeat snapshot shows up as live
	// gauges; no cumulative counters yet.
	got := page()
	for _, want := range []string{
		"# TYPE inpg_live_journey_completed gauge",
		"inpg_live_journey_completed 7",
		"inpg_live_journey_e2e_cycles_sum 350",
		"inpg_fleet_cells 1",
		"inpg_fleet_leases_outstanding 1",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "# TYPE inpg_journey_completed counter") {
		t.Fatalf("/metrics has cumulative counters before any completion:\n%s", got)
	}

	// An accepted completion's snapshot folds into the cumulative
	// counters.
	rep := CompletionReport{Worker: w.id, LeaseID: l.ID, Sweep: l.Sweep,
		Index: l.Index, Digest: l.Digest, OK: true, WallSeconds: 0.01,
		Res: &inpg.Results{Runtime: 1}, Snapshot: snap}
	var cresp CompletionResponse
	w.post(PathComplete, rep, &cresp)
	if !cresp.Accepted {
		t.Fatalf("completion = %+v", cresp)
	}
	wait()
	got = page()
	for _, want := range []string{
		"# TYPE inpg_journey_completed counter",
		"inpg_journey_completed 7",
		"inpg_journey_e2e_cycles_count 7",
		"inpg_journey_e2e_cycles_sum 350",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("/metrics missing %q after completion:\n%s", want, got)
		}
	}
}
