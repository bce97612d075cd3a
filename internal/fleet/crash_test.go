package fleet

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"inpg"
	"inpg/internal/manifest"
	"inpg/internal/runner"
)

// manifestPolicy mimics the experiments observer: every settled outcome
// with a result or an error lands a run manifest (OK, failed attempt or
// quarantine), which is what a restarted coordinator resolves cells
// from. (fakeWorker completions carry fake results; Build records them
// faithfully.)
func manifestPolicy(t *testing.T, dir, sweep string) runner.Policy {
	t.Helper()
	return runner.Policy{Observer: func(o runner.Outcome) {
		if o.Done && o.Status != runner.StatusSkipped && (o.Res != nil || o.Err != nil) {
			m := manifest.Build(sweep, o.Index, o.Cfg, o.Res, o.Snapshot, o.WallSeconds, o.Err)
			if _, err := m.WriteFile(dir); err != nil {
				t.Errorf("manifest write: %v", err)
			}
		}
	}}
}

// markerExists reports whether the sweep's restart marker is in dir.
func markerExists(dir, sweep string) bool {
	_, err := os.Stat(filepath.Join(dir, markerName(sweep)))
	return err == nil
}

// putMarker leaves a restart marker in dir, as a crashed coordinator
// would.
func putMarker(t *testing.T, dir, sweep string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, markerName(sweep)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// nonceOf returns a lease ID's coordinator nonce.
func nonceOf(id string) string {
	return strings.SplitN(id, "-", 2)[0]
}

// TestCoordinatorCrashReplayAdoptsLease is the restart scenario: the
// coordinator dies right after granting a lease and leaves its restart
// marker behind. A coordinator restarted on the same manifest dir
// resolves the already-manifested cell without re-running it, grants
// nothing during the restart hold, adopts the surviving worker's lease
// when its heartbeat names the still-open cell, and finishes the
// campaign.
func TestCoordinatorCrashReplayAdoptsLease(t *testing.T) {
	dir := t.TempDir()
	cfgs := tinyCfgs(3)

	a := NewCoordinator(Config{LeaseTTL: time.Minute, ManifestDir: dir,
		ChaosKillAfter: 2, Exit: func(int) {}, Log: testLogger(t)})
	srvA := httptest.NewServer(a)
	defer srvA.Close()
	waitA := startCampaign(t, a, "crash", cfgs, manifestPolicy(t, dir, "crash"))

	w := &fakeWorker{t: t, url: srvA.URL, id: "survivor"}
	l0 := w.lease()
	if l0 == nil || l0.Index != 0 {
		t.Fatalf("first lease = %+v", l0)
	}
	if resp, _ := w.complete(l0, true, 100); !resp.Accepted {
		t.Fatalf("completion = %+v", resp)
	}
	// The second grant trips ChaosKillAfter: the response is flushed and
	// then the coordinator dies, so the worker genuinely holds the lease.
	l1 := w.lease()
	if l1 == nil || l1.Index != 1 {
		t.Fatalf("lease across crash = %+v", l1)
	}

	_, errsA := waitA()
	if errsA[0] != nil {
		t.Fatalf("pre-crash cell errored: %v", errsA[0])
	}
	if errsA[1] == nil || errsA[1].Cause != runner.CauseCanceled ||
		errsA[2] == nil || errsA[2].Cause != runner.CauseCanceled {
		t.Fatalf("crashed campaign errs = %v / %v, want canceled", errsA[1], errsA[2])
	}
	// The dead coordinator answers every request 503, like a dead process.
	var hb HeartbeatResponse
	if status := w.post(PathHeartbeat, HeartbeatRequest{Worker: w.id, LeaseID: l1.ID}, &hb); status != http.StatusServiceUnavailable {
		t.Fatalf("dead coordinator heartbeat status = %d, want 503", status)
	}
	if !markerExists(dir, "crash") {
		t.Fatal("crashed campaign left no restart marker")
	}

	// Restart against the same manifest dir.
	clk := newClock()
	b := NewCoordinator(Config{LeaseTTL: time.Minute, ManifestDir: dir, Now: clk.Now, Log: testLogger(t)})
	srvB := httptest.NewServer(b)
	defer srvB.Close()
	w.url = srvB.URL
	// Up but no campaign yet: retry, so the lease stays adoptable.
	if status := w.post(PathHeartbeat, HeartbeatRequest{Worker: w.id, LeaseID: l1.ID,
		Sweep: l1.Sweep, Index: l1.Index, Digest: l1.Digest}, &hb); status != http.StatusServiceUnavailable {
		t.Fatalf("heartbeat before the campaign is published: status %d, want 503", status)
	}
	waitB := startCampaign(t, b, "crash", cfgs, pairClaims(t, manifestPolicy(t, dir, "crash")))

	if l := w.lease(); l != nil {
		t.Fatalf("lease granted during the restart hold: %+v", l)
	}
	// The previous incarnation's lease names an open cell: adopted.
	if hb := w.heartbeat(l1); !hb.OK || hb.Gone {
		t.Fatalf("heartbeat on the survivor's lease = %+v, want adopted", hb)
	}
	if hb := w.heartbeat(l1); !hb.OK {
		t.Fatalf("heartbeat on the adopted lease = %+v", hb)
	}
	if resp, _ := w.complete(l1, true, 111); !resp.Accepted {
		t.Fatalf("adopted completion = %+v", resp)
	}
	clk.Advance(time.Minute)
	l2 := w.lease()
	if l2 == nil || l2.Index != 2 {
		t.Fatalf("remaining lease = %+v", l2)
	}
	if nonceOf(l2.ID) == nonceOf(l1.ID) {
		t.Fatalf("restarted coordinator reused its predecessor's nonce: %s vs %s", l2.ID, l1.ID)
	}
	w.complete(l2, true, 222)

	resB, errsB := waitB()
	for i := range cfgs {
		if errsB[i] != nil || resB[i] == nil {
			t.Fatalf("cell %d after restart: res %v err %v", i, resB[i], errsB[i])
		}
	}
	// Cell 0 was resolved from its manifest, not re-run: the result is
	// the pre-crash one.
	if resB[0].Runtime != 100 || resB[1].Runtime != 111 || resB[2].Runtime != 222 {
		t.Fatalf("runtimes = %d/%d/%d", resB[0].Runtime, resB[1].Runtime, resB[2].Runtime)
	}
	st := b.Status()
	if st.Adopted != 1 || st.Reclaims != 0 || st.LateAccepts != 0 {
		t.Fatalf("status = adopted %d reclaims %d late %d, want 1/0/0 (adopted, not reclaimed)",
			st.Adopted, st.Reclaims, st.LateAccepts)
	}
	if markerExists(dir, "crash") {
		t.Fatal("finished campaign left its restart marker")
	}
}

// TestCoordinatorDoubleCrashReplay: the restarted coordinator crashes
// too — after adopting a lease and granting a new one — and a third
// incarnation restarts from the same marker and manifests. Every restart
// resolves what the manifests prove, holds, and adopts the lease its
// predecessor left on a worker; the counters belong to each incarnation.
func TestCoordinatorDoubleCrashReplay(t *testing.T) {
	dir := t.TempDir()
	cfgs := tinyCfgs(2)

	a := NewCoordinator(Config{LeaseTTL: time.Minute, ManifestDir: dir,
		ChaosKillAfter: 1, Exit: func(int) {}, Log: testLogger(t)})
	srvA := httptest.NewServer(a)
	defer srvA.Close()
	waitA := startCampaign(t, a, "dc", cfgs, manifestPolicy(t, dir, "dc"))
	w := &fakeWorker{t: t, url: srvA.URL, id: "survivor"}
	l0 := w.lease() // first grant kills A; the worker holds cell 0
	if l0 == nil || l0.Index != 0 {
		t.Fatalf("lease = %+v", l0)
	}
	waitA()

	clkB := newClock()
	b := NewCoordinator(Config{LeaseTTL: time.Minute, ManifestDir: dir,
		ChaosKillAfter: 1, Exit: func(int) {}, Now: clkB.Now, Log: testLogger(t)})
	srvB := httptest.NewServer(b)
	defer srvB.Close()
	waitB := startCampaign(t, b, "dc", cfgs, manifestPolicy(t, dir, "dc"))

	w.url = srvB.URL
	if hb := w.heartbeat(l0); !hb.OK {
		t.Fatalf("heartbeat on B = %+v", hb)
	}
	if resp, _ := w.complete(l0, true, 100); !resp.Accepted {
		t.Fatalf("completion on B = %+v", resp)
	}
	clkB.Advance(time.Minute)
	l1 := w.lease() // B's first grant kills B; the worker holds cell 1
	if l1 == nil || l1.Index != 1 {
		t.Fatalf("lease across second crash = %+v", l1)
	}
	waitB()
	if st := b.Status(); st.Adopted != 1 {
		t.Fatalf("B adopted = %d, want 1", st.Adopted)
	}
	if !markerExists(dir, "dc") {
		t.Fatal("second crash lost the restart marker")
	}

	clkC := newClock()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, ManifestDir: dir, Now: clkC.Now, Log: testLogger(t)})
	srvC := httptest.NewServer(c)
	defer srvC.Close()
	waitC := startCampaign(t, c, "dc", cfgs, manifestPolicy(t, dir, "dc"))

	w.url = srvC.URL
	if st := c.Status(); st.Completed != 1 {
		t.Fatalf("C resolved %d cells from manifests, want 1", st.Completed)
	}
	if l := w.lease(); l != nil {
		t.Fatalf("lease granted during C's restart hold: %+v", l)
	}
	if hb := w.heartbeat(l1); !hb.OK {
		t.Fatalf("heartbeat on C = %+v", hb)
	}
	if resp, _ := w.complete(l1, true, 200); !resp.Accepted {
		t.Fatalf("completion on C = %+v", resp)
	}

	res, errs := waitC()
	if errs[0] != nil || errs[1] != nil || res[0].Runtime != 100 || res[1].Runtime != 200 {
		t.Fatalf("final results = %v/%v errs %v/%v", res[0], res[1], errs[0], errs[1])
	}
	if st := c.Status(); st.Adopted != 1 || st.Reclaims != 0 {
		t.Fatalf("C adopted %d reclaims %d, want 1/0", st.Adopted, st.Reclaims)
	}
	if markerExists(dir, "dc") {
		t.Fatal("finished campaign left its restart marker")
	}
}

// TestFreshCampaignNeverHolds: with a manifest dir and no marker, the
// first poll is granted at once, the marker exists while the campaign
// runs, and the finished campaign leaves none behind.
func TestFreshCampaignNeverHolds(t *testing.T) {
	dir := t.TempDir()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, ManifestDir: dir,
		Now: newClock().Now, Log: testLogger(t)})
	srv := httptest.NewServer(c)
	defer srv.Close()
	wait := startCampaign(t, c, "fresh", tinyCfgs(1), runner.Policy{})

	w := &fakeWorker{t: t, url: srv.URL, id: "worker"}
	l := w.lease()
	if l == nil {
		t.Fatal("fresh campaign held its first grant")
	}
	if !markerExists(dir, "fresh") {
		t.Fatal("running campaign has no restart marker")
	}
	w.complete(l, true, 1)
	wait()
	if markerExists(dir, "fresh") {
		t.Fatal("finished campaign left its restart marker")
	}
}

// TestRestartHoldLastsOneLeaseTTL: a coordinator that finds the marker
// grants nothing until one LeaseTTL after the restart.
func TestRestartHoldLastsOneLeaseTTL(t *testing.T) {
	dir := t.TempDir()
	putMarker(t, dir, "hold")
	clk := newClock()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, ManifestDir: dir, Now: clk.Now, Log: testLogger(t)})
	srv := httptest.NewServer(c)
	defer srv.Close()
	wait := startCampaign(t, c, "hold", tinyCfgs(1), runner.Policy{})

	w := &fakeWorker{t: t, url: srv.URL, id: "worker"}
	clk.Advance(time.Minute - time.Second)
	if l := w.lease(); l != nil {
		t.Fatalf("lease at LeaseTTL-1s into the restart hold: %+v", l)
	}
	clk.Advance(time.Second)
	l := w.lease()
	if l == nil {
		t.Fatal("no lease once the restart hold ended")
	}
	w.complete(l, true, 1)
	wait()
	if markerExists(dir, "hold") {
		t.Fatal("finished campaign left its restart marker")
	}
}

// TestRestartResolvesFromManifests: at restart, an OK manifest recorded
// under the cell's digest settles the cell without a dispatch; a
// failed-run manifest, or an OK one under another digest, leaves its cell
// to be dispatched again.
func TestRestartResolvesFromManifests(t *testing.T) {
	dir := t.TempDir()
	cfgs := tinyCfgs(3)
	for _, m := range []manifest.Manifest{
		manifest.Build("res", 0, cfgs[0], &inpg.Results{Runtime: 100}, nil, 0.01, nil),
		manifest.Build("res", 1, cfgs[1], nil, nil, 0.01,
			&runner.RunError{Index: 1, Cause: runner.CauseError, Err: errors.New("boom")}),
		manifest.Build("res", 2, tinyCfg(999), &inpg.Results{Runtime: 666}, nil, 0.01, nil),
	} {
		if _, err := m.WriteFile(dir); err != nil {
			t.Fatal(err)
		}
	}
	putMarker(t, dir, "res")

	var mu sync.Mutex
	var skipped []int
	p := runner.Policy{Observer: func(o runner.Outcome) {
		if o.Status == runner.StatusSkipped {
			mu.Lock()
			skipped = append(skipped, o.Index)
			mu.Unlock()
		}
	}}
	clk := newClock()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, ManifestDir: dir, Now: clk.Now, Log: testLogger(t)})
	srv := httptest.NewServer(c)
	defer srv.Close()
	wait := startCampaign(t, c, "res", cfgs, p)
	if st := c.Status(); st.Completed != 1 {
		t.Fatalf("resolved %d cells from manifests, want 1", st.Completed)
	}

	clk.Advance(time.Minute)
	w := &fakeWorker{t: t, url: srv.URL, id: "worker"}
	var leased []int
	for _, want := range []int{1, 2} {
		l := w.lease()
		if l == nil {
			t.Fatalf("no lease after the restart hold; leased so far %v", leased)
		}
		leased = append(leased, l.Index)
		if l.Index != want {
			t.Fatalf("leased cells %v, want [1 2]", leased)
		}
		w.complete(l, true, uint64(200+l.Index))
	}
	res, errs := wait()
	for i := range cfgs {
		if errs[i] != nil || res[i] == nil {
			t.Fatalf("cell %d: res %v err %v", i, res[i], errs[i])
		}
	}
	if res[0].Runtime != 100 || res[1].Runtime != 201 || res[2].Runtime != 202 {
		t.Fatalf("runtimes = %d/%d/%d, want 100/201/202", res[0].Runtime, res[1].Runtime, res[2].Runtime)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(skipped, []int{0}) {
		t.Fatalf("settled-at-restart outcomes for cells %v, want [0]", skipped)
	}
}

// TestForeignHeartbeatAdoptsOpenCell: a heartbeat on a lease another
// coordinator incarnation granted adopts it when its cell is still open
// here and the digest matches: the answer is OK, the cell is not granted
// again, and the completion on the lease is on time. A stale digest, a
// cell another worker holds here, or a cell already settled is Gone.
func TestForeignHeartbeatAdoptsOpenCell(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Minute, Now: newClock().Now, Log: testLogger(t)})
	srv := httptest.NewServer(c)
	defer srv.Close()
	cfgs := tinyCfgs(2)
	wait := startCampaign(t, c, "adopt", cfgs, pairClaims(t, runner.Policy{}))

	survivor := &fakeWorker{t: t, url: srv.URL, id: "survivor"}
	other := &fakeWorker{t: t, url: srv.URL, id: "other"}
	const prev = "0123456789ab" // a previous incarnation's nonce
	foreign := &Lease{ID: prev + "-adopt-0000-7", Sweep: "adopt", Index: 0, Digest: cfgs[0].Digest()}
	stale := &Lease{ID: prev + "-adopt-0000-3", Sweep: "adopt", Index: 0, Digest: "deadbeef"}
	if hb := survivor.heartbeat(stale); !hb.Gone || hb.OK {
		t.Fatalf("heartbeat with a stale digest = %+v, want gone", hb)
	}
	if hb := survivor.heartbeat(foreign); !hb.OK || hb.Gone {
		t.Fatalf("heartbeat on a foreign lease = %+v, want adopted", hb)
	}
	if st := c.Status(); st.Adopted != 1 || st.LeasesOutstanding != 1 {
		t.Fatalf("status after adoption = %+v", st)
	}
	// Only cell 1 is left to grant.
	l1 := other.lease()
	if l1 == nil || l1.Index != 1 {
		t.Fatalf("lease after adoption = %+v, want cell 1", l1)
	}
	if l := other.lease(); l != nil {
		t.Fatalf("adopted cell granted again: %+v", l)
	}
	held := &Lease{ID: prev + "-adopt-0001-8", Sweep: "adopt", Index: 1, Digest: cfgs[1].Digest()}
	if hb := survivor.heartbeat(held); !hb.Gone {
		t.Fatalf("heartbeat on a cell held here = %+v, want gone", hb)
	}
	if resp, _ := survivor.complete(foreign, true, 7); !resp.Accepted {
		t.Fatalf("completion on the adopted lease = %+v", resp)
	}
	if hb := survivor.heartbeat(foreign); !hb.Gone {
		t.Fatalf("heartbeat on a settled cell = %+v, want gone", hb)
	}
	other.complete(l1, true, 8)

	res, errs := wait()
	if errs[0] != nil || res[0] == nil || res[0].Runtime != 7 {
		t.Fatalf("adopted cell result = %+v err %v", res[0], errs[0])
	}
	if st := c.Status(); st.Adopted != 1 || st.LateAccepts != 0 || st.Duplicates != 0 {
		t.Fatalf("final status = %+v", st)
	}
}

// TestFleetTokenAuth: with a token configured, every /fleet/* request
// without the bearer secret is 401; /healthz and /metrics stay open; a
// worker configured with the token completes a campaign normally.
func TestFleetTokenAuth(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Minute, Token: "s3cret", Log: testLogger(t)})
	srv := serve(t, c)

	post := func(token string) int {
		req, err := http.NewRequest(http.MethodPost, srv.URL+PathLease,
			strings.NewReader(`{"worker":"w"}`))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := post(""); status != http.StatusUnauthorized {
		t.Fatalf("tokenless lease status = %d, want 401", status)
	}
	if status := post("wrong"); status != http.StatusUnauthorized {
		t.Fatalf("wrong-token lease status = %d, want 401", status)
	}
	if status := post("s3cret"); status != http.StatusOK {
		t.Fatalf("authorized lease status = %d, want 200", status)
	}
	for _, open := range []string{PathHealthz, PathMetrics} {
		resp, err := http.Get(srv.URL + open)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d, want 200 without token", open, resp.StatusCode)
		}
	}

	wait := startCampaign(t, c, "auth", tinyCfgs(1), runner.Policy{})
	runWorker(t, c, NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "tokened", Token: "s3cret",
		PollInterval: 2 * time.Millisecond, Log: testLogger(t)}))
	res, errs := wait()
	if errs[0] != nil || res[0] == nil {
		t.Fatalf("authorized worker campaign: res %v err %v", res[0], errs[0])
	}
}
