package fleet

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
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
// can immediately start leasing. Workers already polling may finish the
// whole campaign before it is seen registered; that counts as started.
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
	for c.Status().Cells != len(cfgs) && len(ch) == 0 {
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

// serve puts c behind a loopback server that closes when the test ends,
// after every worker started by runWorker has exited.
func serve(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(c)
	t.Cleanup(srv.Close)
	return srv
}

// runWorker runs a real worker in the background and returns a channel
// closed when it exits. The test's cleanup orders the fleet down and
// waits for the worker, so a failing test never leaves one polling (and
// logging through t) after it ends.
func runWorker(t *testing.T, c *Coordinator, w *Worker) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run()
	}()
	t.Cleanup(func() {
		c.Shutdown()
		<-done
	})
	return done
}

// awaitWorkers blocks until c has heard from every worker in ids. A
// worker registers on its first lease poll, campaign or not, so a
// campaign published afterwards is open to all of them from its start.
func awaitWorkers(t *testing.T, c *Coordinator, ids ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		seen := 0
		for _, ws := range c.Status().Workers {
			for _, id := range ids {
				if ws.ID == id {
					seen++
				}
			}
		}
		if seen == len(ids) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers %v never polled; status %+v", ids, c.Status())
		}
		time.Sleep(time.Millisecond)
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
	f.post(PathHeartbeat, HeartbeatRequest{Worker: f.id, LeaseID: l.ID}, &resp)
	return resp
}

// complete reports a lease finished with a recognizable fake result.
func (f *fakeWorker) complete(l *Lease, ok bool, runtime uint64) (CompletionResponse, int) {
	rep := CompletionReport{Worker: f.id, LeaseID: l.ID, Sweep: l.Sweep,
		Index: l.Index, Digest: l.Digest, OK: ok, WallSeconds: 0.01}
	if ok {
		rep.Res = &inpg.Results{Summary: inpg.Summary{Runtime: runtime}}
	} else {
		rep.Error = "injected failure"
		rep.Cause = string(runner.CauseError)
	}
	var resp CompletionResponse
	status := f.post(PathComplete, rep, &resp)
	return resp, status
}

// pairClaims wraps p's observer with runner.Outcome's pairing contract:
// a claim opens per cell, every Done except StatusSkipped must close an
// open one, and none may be left open when the test ends. (Fleet
// outcomes all carry worker 0, so claims are counted per cell.)
func pairClaims(t *testing.T, p runner.Policy) runner.Policy {
	t.Helper()
	var mu sync.Mutex
	open := map[int]int{}
	inner := p.Observer
	p.Observer = func(o runner.Outcome) {
		if inner != nil {
			inner(o)
		}
		if o.Status == runner.StatusSkipped {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case !o.Done:
			open[o.Index]++
		case open[o.Index] == 0:
			t.Errorf("Done without a claim: cell %d status %s", o.Index, o.Status)
		default:
			open[o.Index]--
		}
	}
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for i, n := range open {
			if n > 0 {
				t.Errorf("cell %d: %d claims never closed", i, n)
			}
		}
	})
	return p
}

// TestHeartbeatJustAfterExpiry: a heartbeat that arrives after the lease
// deadline — even before the periodic reclaimer ran — finds the lease
// gone and the cell back in the queue; the original holder's eventual
// completion is deduplicated after another worker resolves the cell.
func TestHeartbeatJustAfterExpiry(t *testing.T) {
	clk := newClock()
	dir := t.TempDir()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, Now: clk.Now})
	srv := httptest.NewServer(c)
	defer srv.Close()
	// Two cells so the duplicate arrives while the campaign is active.
	cfgs := tinyCfgs(2)
	wait := startCampaign(t, c, "hb", cfgs, pairClaims(t, manifestPolicy(t, dir, "hb")))

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
	if st := c.Status(); st.Reclaims != 1 {
		t.Fatalf("reclaims = %d, want 1", st.Reclaims)
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
	wait := startCampaign(t, c, "race", tinyCfgs(1), pairClaims(t, runner.Policy{}))

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

// outcomeLog records each cell's outcome statuses in arrival order; a
// Done outcome that carries an error reads "<status>+err".
type outcomeLog struct {
	mu   sync.Mutex
	seen map[int][]string
}

// wrap chains the log after p's observer.
func (l *outcomeLog) wrap(p runner.Policy) runner.Policy {
	inner := p.Observer
	p.Observer = func(o runner.Outcome) {
		if inner != nil {
			inner(o)
		}
		s := string(o.Status)
		if o.Err != nil {
			s += "+err"
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.seen == nil {
			l.seen = map[int][]string{}
		}
		l.seen[o.Index] = append(l.seen[o.Index], s)
	}
	return p
}

// of returns cell i's outcomes, space-separated.
func (l *outcomeLog) of(i int) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.seen[i], " ")
}

// TestFailedReportSettlesCell: one failed report settles its cell, as a
// failed local run does. The cell gets one Running and one Failed
// outcome, errs[i] carries the reported cause, a failed manifest is
// written, and the cell is never granted to a second worker.
func TestFailedReportSettlesCell(t *testing.T) {
	dir := t.TempDir()
	c := NewCoordinator(Config{})
	srv := httptest.NewServer(c)
	defer srv.Close()
	log := &outcomeLog{}
	wait := startCampaign(t, c, "fail", tinyCfgs(2),
		pairClaims(t, log.wrap(manifestPolicy(t, dir, "fail"))))

	a := &fakeWorker{t: t, url: srv.URL, id: "worker-a"}
	b := &fakeWorker{t: t, url: srv.URL, id: "worker-b"}

	la := a.lease()
	if la == nil || la.Index != 0 {
		t.Fatalf("first lease = %+v", la)
	}
	if resp, _ := a.complete(la, false, 0); !resp.Accepted {
		t.Fatalf("failure report = %+v, want accepted", resp)
	}
	lb := b.lease()
	if lb == nil || lb.Index != 1 {
		t.Fatalf("second lease = %+v, want cell 1", lb)
	}
	if l := b.lease(); l != nil {
		t.Fatalf("failed cell granted again: %+v", l)
	}
	b.complete(lb, true, 7)

	res, errs := wait()
	if res[0] != nil || res[1] == nil || errs[1] != nil {
		t.Fatalf("results = %v / %v, errs[1] = %v", res[0], res[1], errs[1])
	}
	if e := errs[0]; e == nil || e.Cause != runner.CauseError || e.Err.Error() != "injected failure" ||
		e.Error() != "runner: run 0 [error]: injected failure" {
		t.Fatalf("failed cell error = %+v, want the reported cause", e)
	}
	if got, want := log.of(0), "running failed+err"; got != want {
		t.Fatalf("cell 0 outcomes = %q, want %q", got, want)
	}
	st := c.Status()
	failed := map[string]int{}
	for _, ws := range st.Workers {
		failed[ws.ID] = ws.Failed
	}
	if st.Reclaims != 0 || st.Duplicates != 0 || failed["worker-a"] != 1 {
		t.Fatalf("status = %+v", st)
	}
	ms, _, err := manifest.ScanDir(dir, "fail")
	if err != nil {
		t.Fatal(err)
	}
	if m := ms[0]; m == nil || m.Status != manifest.StatusFailed || m.Cause != string(runner.CauseError) {
		t.Fatalf("cell 0 manifest = %+v, want a failed run", m)
	}
	if m := ms[1]; m == nil || m.Status != manifest.StatusOK {
		t.Fatalf("cell 1 manifest = %+v, want OK", m)
	}
}

// TestLateFailureSettlesCell: A's lease on the only cell expires, which
// closes A's claim abandoned (no error, no manifest: no run failed), and
// the cell is granted to B. A's late failure report then arrives first
// and settles the cell failed; B's claim closes abandoned and B's own
// report is a duplicate. Exactly one manifest, the failed one, exists.
func TestLateFailureSettlesCell(t *testing.T) {
	clk := newClock()
	dir := t.TempDir()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, Now: clk.Now, Log: testLogger(t)})
	srv := httptest.NewServer(c)
	defer srv.Close()
	log := &outcomeLog{}
	wait := startCampaign(t, c, "late", tinyCfgs(1),
		pairClaims(t, log.wrap(manifestPolicy(t, dir, "late"))))

	a := &fakeWorker{t: t, url: srv.URL, id: "worker-a"}
	b := &fakeWorker{t: t, url: srv.URL, id: "worker-b"}

	la := a.lease()
	clk.Advance(time.Minute + time.Second)
	lb := b.lease() // lazy reclaim of A's lease
	if lb == nil || lb.Index != 0 {
		t.Fatalf("lease after reclaim = %+v", lb)
	}
	if got, want := log.of(0), "running abandoned running"; got != want {
		t.Fatalf("outcomes after reclaim = %q, want %q", got, want)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("manifests after reclaim = %v (err %v), want none", entries, err)
	}

	if resp, _ := a.complete(la, false, 0); !resp.Accepted {
		t.Fatalf("late failure report = %+v, want accepted", resp)
	}
	if resp, _ := b.complete(lb, true, 42); !resp.Duplicate || resp.Accepted {
		t.Fatalf("current holder's completion = %+v, want duplicate", resp)
	}

	res, errs := wait()
	if res[0] != nil || errs[0] == nil || errs[0].Cause != runner.CauseError {
		t.Fatalf("result = %+v err %v, want worker-a's failure", res[0], errs[0])
	}
	if got, want := log.of(0), "running abandoned running abandoned running failed+err"; got != want {
		t.Fatalf("outcomes = %q, want %q", got, want)
	}
	if st := c.Status(); st.Reclaims != 1 || st.LateAccepts != 1 || st.Duplicates != 1 {
		t.Fatalf("status = %+v", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("manifests = %v (err %v), want exactly one", entries, err)
	}
	ms, _, err := manifest.ScanDir(dir, "late")
	if err != nil {
		t.Fatal(err)
	}
	if m := ms[0]; m == nil || m.Status != manifest.StatusFailed {
		t.Fatalf("cell 0 manifest = %+v, want the failed run", m)
	}
}

// TestCampaignWaitsForObservers: RunCampaign returns only after every
// observer call on its outcomes has returned. Here the last completion
// closes the campaign while the handler of an earlier one is still
// inside the observer — where a sweep writes the cell's manifest and
// updates the caller's state, which the caller reads once RunCampaign
// returns.
func TestCampaignWaitsForObservers(t *testing.T) {
	c := NewCoordinator(Config{})
	srv := serve(t, c)
	blocked := make(chan struct{})
	release := make(chan struct{})
	// Released on every exit path: serve's cleanup waits for the blocked
	// handler.
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	p := runner.Policy{Observer: func(o runner.Outcome) {
		if o.Index == 0 && o.Done {
			close(blocked)
			<-release
		}
	}}
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		c.RunCampaign("drain", tinyCfgs(2), p)
	}()
	for deadline := time.Now().Add(5 * time.Second); c.Status().Cells != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("campaign never registered")
		}
	}

	a := &fakeWorker{t: t, url: srv.URL, id: "worker-a"}
	b := &fakeWorker{t: t, url: srv.URL, id: "worker-b"}
	la, lb := a.lease(), b.lease()
	if la == nil || lb == nil || la.Index != 0 || lb.Index != 1 {
		t.Fatalf("leases = %+v, %+v; want cells 0 and 1", la, lb)
	}
	// Posted by hand, not with a.complete: only the test goroutine may
	// call t.Fatal.
	completedA := make(chan error, 1)
	go func() {
		body, err := json.Marshal(CompletionReport{Worker: a.id, LeaseID: la.ID, Sweep: la.Sweep,
			Index: la.Index, Digest: la.Digest, OK: true, Res: &inpg.Results{Summary: inpg.Summary{Runtime: 111}}})
		if err == nil {
			var resp *http.Response
			if resp, err = http.Post(srv.URL+PathComplete, "application/json", bytes.NewReader(body)); err == nil {
				resp.Body.Close()
			}
		}
		completedA <- err
	}()
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("cell 0's completion never reached the observer")
	}
	if resp, _ := b.complete(lb, true, 222); !resp.Accepted {
		t.Fatalf("last completion = %+v", resp)
	}
	select {
	case <-returned:
		t.Fatal("RunCampaign returned while the observer still held cell 0's outcome")
	case <-time.After(200 * time.Millisecond):
	}
	unblock()
	select {
	case err := <-completedA:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cell 0's completion did not return after the observer did")
	}
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("RunCampaign did not return after the observer did")
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
	srv := serve(t, c)
	// Both workers poll before the campaign exists: either may then take
	// every cell, but both are on the books from the start.
	for _, id := range []string{"w1", "w2"} {
		runWorker(t, c, NewWorker(WorkerConfig{Coordinator: srv.URL, ID: id,
			PollInterval: 2 * time.Millisecond, Log: testLogger(t)}))
	}
	awaitWorkers(t, c, "w1", "w2")
	wait := startCampaign(t, c, "fleet", cfgs, runner.Policy{})

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
}

// TestWorkerChaosKillTriggersReclaim: a worker dying while holding a
// lease (chaos kill) loses its heartbeats; the lease expires, the cell is
// re-dispatched to a survivor, and the campaign completes with results
// identical to a clean local run.
func TestWorkerChaosKillTriggersReclaim(t *testing.T) {
	cfgs := tinyCfgs(3)
	localRes, _ := runner.RunResilient(cfgs, runner.Policy{Workers: 1})

	c := NewCoordinator(Config{LeaseTTL: 100 * time.Millisecond})
	srv := serve(t, c)
	wait := startCampaign(t, c, "kill", cfgs, runner.Policy{})

	killed := make(chan struct{})
	victimDone := runWorker(t, c, NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "victim",
		PollInterval: 2 * time.Millisecond, ChaosKillAfter: 1,
		Exit: func(int) { close(killed) }, Log: testLogger(t)}))
	<-killed // the victim died holding its first lease
	<-victimDone

	runWorker(t, c, NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "survivor",
		PollInterval: 2 * time.Millisecond, Log: testLogger(t)}))

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
}

// TestWorkerChaosDropResendsAndDedups: with every completion ack dropped
// once, each cell's report is delivered twice; the first write wins and
// every resend is counted as a duplicate, with results unaffected.
func TestWorkerChaosDropResendsAndDedups(t *testing.T) {
	cfgs := tinyCfgs(3)
	c := NewCoordinator(Config{LeaseTTL: 5 * time.Second})
	srv := serve(t, c)
	wait := startCampaign(t, c, "drop", cfgs, runner.Policy{})

	done := runWorker(t, c, NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "dropper",
		PollInterval: 2 * time.Millisecond, ChaosDropRate: 1, Log: testLogger(t)}))

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
	srv := serve(t, c)

	claimed := make(chan struct{})
	var once sync.Once
	p := runner.Policy{Observer: func(o runner.Outcome) {
		if o.Status == runner.StatusRunning {
			once.Do(func() { close(claimed) })
		}
	}}
	wait := startCampaign(t, c, "drain", cfgs, p)

	w := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "drainer",
		PollInterval: 2 * time.Millisecond, Log: testLogger(t)})
	done := runWorker(t, c, w)
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

// TestCoordinatorMetricsEndpoint: the coordinator serves only the
// /fleet/* protocol and /healthz, no /metrics or status route, and hands
// each accepted completion's telemetry snapshot to the campaign's
// observer on the OK outcome; that snapshot is what the cell's manifest
// records, as on a local sweep.
func TestCoordinatorMetricsEndpoint(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Minute})
	srv := serve(t, c)
	for _, path := range []string{"/metrics", "/fleet/status"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("coordinator %s status = %d, want 404", path, resp.StatusCode)
		}
	}

	var mu sync.Mutex
	var got *metrics.Snapshot
	wait := startCampaign(t, c, "prom", tinyCfgs(1), runner.Policy{Observer: func(o runner.Outcome) {
		if o.Done && o.Status == runner.StatusOK {
			mu.Lock()
			got = o.Snapshot
			mu.Unlock()
		}
	}})
	w := &fakeWorker{t: t, url: srv.URL, id: "worker-m"}
	l := w.lease()
	if l == nil {
		t.Fatal("no lease")
	}
	snap := &metrics.Snapshot{
		Values:     []metrics.KV{{Name: "journey.completed", Value: 7}},
		Histograms: []metrics.HistSummary{{Name: "journey.e2e_cycles", Count: 7, Sum: 350}},
	}
	var resp CompletionResponse
	w.post(PathComplete, CompletionReport{Worker: w.id, LeaseID: l.ID, Sweep: l.Sweep,
		Index: l.Index, Digest: l.Digest, OK: true, WallSeconds: 0.01,
		Res: &inpg.Results{Summary: inpg.Summary{Runtime: 1}}, Snapshot: snap}, &resp)
	if !resp.Accepted {
		t.Fatalf("completion = %+v", resp)
	}
	wait()
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("OK outcome's snapshot = %+v, want the completion's %+v", got, snap)
	}
}
