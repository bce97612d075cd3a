package fleet

import (
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"inpg/internal/manifest"
	"inpg/internal/runner"
)

// manifestPolicy mimics the experiments observer: every settled outcome
// with a result or an error lands a run manifest (OK or failed), which
// is what -resume restarts a sweep from. (fakeWorker
// completions carry fake results; Build records them faithfully.)
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

// TestCoordinatorCrashReplayAdoptsLease is the restart scenario as
// -resume runs it. The coordinator dies right after its second grant:
// cell 0 is manifested, cell 1 is on the surviving worker and cell 2 was
// never granted. A second coordinator, skipping what the manifests prove
// as -resume does, skips cell 0 without re-running it and takes cell 1
// from the survivor through the late-accept path: its heartbeat is
// answered gone, its completion is accepted with one Running and one OK,
// and the cell is not granted again. Cell 2 is granted under a new nonce.
func TestCoordinatorCrashReplayAdoptsLease(t *testing.T) {
	dir := t.TempDir()
	cfgs := tinyCfgs(3)

	a := NewCoordinator(Config{LeaseTTL: time.Minute, ChaosKillAfter: 2,
		Exit: func(int) {}, Log: testLogger(t)})
	srvA := serve(t, a)
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
		t.Fatalf("lease across the crash = %+v", l1)
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
	if status := w.post(PathHeartbeat, HeartbeatRequest{Worker: w.id, LeaseID: l1.ID},
		nil); status != http.StatusServiceUnavailable {
		t.Fatalf("dead coordinator heartbeat status = %d, want 503", status)
	}

	// Restart: skip the cells whose manifests are OK under the current
	// digest, which is experiments.runAll's -resume scan.
	prior, _, err := manifest.ScanDir(dir, "crash")
	if err != nil {
		t.Fatal(err)
	}
	b := NewCoordinator(Config{LeaseTTL: time.Minute, Now: newClock().Now, Log: testLogger(t)})
	srvB := serve(t, b)
	written := manifestPolicy(t, dir, "crash").Observer
	var mu sync.Mutex
	seen := map[int][]runner.Status{}
	p := pairClaims(t, runner.Policy{
		Skip: func(i int) bool {
			m := prior[i]
			return m != nil && m.Status == manifest.StatusOK && m.ConfigDigest == cfgs[i].Digest()
		},
		Observer: func(o runner.Outcome) {
			written(o)
			mu.Lock()
			seen[o.Index] = append(seen[o.Index], o.Status)
			mu.Unlock()
		},
	})
	waitB := startCampaign(t, b, "crash", cfgs, p)
	w.url = srvB.URL

	if hb := w.heartbeat(l1); !hb.Gone || hb.OK {
		t.Fatalf("heartbeat on the dead coordinator's lease = %+v, want gone", hb)
	}
	if resp, _ := w.complete(l1, true, 111); !resp.Accepted {
		t.Fatalf("completion on the dead coordinator's lease = %+v, want accepted", resp)
	}
	// Only cell 2 is left to grant.
	l2 := w.lease()
	if l2 == nil || l2.Index != 2 {
		t.Fatalf("remaining lease = %+v, want cell 2", l2)
	}
	if nonceOf(l2.ID) == nonceOf(l1.ID) {
		t.Fatalf("second coordinator reused the dead one's nonce: %s vs %s", l2.ID, l1.ID)
	}
	if l := w.lease(); l != nil {
		t.Fatalf("late-accepted cell granted again: %+v", l)
	}
	w.complete(l2, true, 222)

	resB, errsB := waitB()
	for i := range cfgs {
		if errsB[i] != nil {
			t.Fatalf("cell %d after restart: err %v", i, errsB[i])
		}
	}
	// Cell 0 is skipped, its result left for the caller to prefill from
	// its manifest; the others carry the survivor's runs.
	if resB[0] != nil || resB[1] == nil || resB[1].Runtime != 111 || resB[2] == nil || resB[2].Runtime != 222 {
		t.Fatalf("results after restart = %+v / %+v / %+v", resB[0], resB[1], resB[2])
	}
	if st := b.Status(); st.LateAccepts != 1 || st.Reclaims != 0 || st.Duplicates != 0 {
		t.Fatalf("status = %+v, want one late accept", st)
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[int][]runner.Status{
		0: {runner.StatusSkipped},
		1: {runner.StatusRunning, runner.StatusOK},
		2: {runner.StatusRunning, runner.StatusOK},
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("outcomes after restart = %v, want %v", seen, want)
	}
	after, _, err := manifest.ScanDir(dir, "crash")
	if err != nil {
		t.Fatal(err)
	}
	for i, rt := range []uint64{100, 111, 222} {
		m := after[i]
		if m == nil || m.Status != manifest.StatusOK || m.ToResults().Runtime != rt {
			t.Fatalf("cell %d manifest = %+v, want OK with runtime %d", i, m, rt)
		}
	}
}

// TestForeignHeartbeatAdoptsOpenCell: a lease no live coordinator
// granted (a dead coordinator process's, carried across a -resume
// restart) is never adopted by its heartbeat, which is answered gone
// whether its cell is open here, held by another worker or settled. The
// open cell is adopted by the lease's completion instead: with a
// matching digest it is accepted late, with one Running and one OK, and
// the cell is not granted again.
func TestForeignHeartbeatAdoptsOpenCell(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Minute, Now: newClock().Now, Log: testLogger(t)})
	srv := serve(t, c)
	cfgs := tinyCfgs(2)
	var mu sync.Mutex
	var cell0 []runner.Status
	wait := startCampaign(t, c, "adopt", cfgs, pairClaims(t, runner.Policy{Observer: func(o runner.Outcome) {
		if o.Index == 0 {
			mu.Lock()
			cell0 = append(cell0, o.Status)
			mu.Unlock()
		}
	}}))

	survivor := &fakeWorker{t: t, url: srv.URL, id: "survivor"}
	other := &fakeWorker{t: t, url: srv.URL, id: "other"}
	const prev = "0123456789ab" // a dead coordinator's nonce
	foreign := &Lease{ID: prev + "-adopt-0000-7", Sweep: "adopt", Index: 0, Digest: cfgs[0].Digest()}
	if hb := survivor.heartbeat(foreign); !hb.Gone || hb.OK {
		t.Fatalf("heartbeat on a foreign lease for an open cell = %+v, want gone", hb)
	}
	if st := c.Status(); st.LeasesOutstanding != 0 {
		t.Fatalf("status after a foreign heartbeat = %+v, want no lease", st)
	}
	if resp, _ := survivor.complete(foreign, true, 7); !resp.Accepted {
		t.Fatalf("completion on a foreign lease = %+v, want accepted", resp)
	}
	// Only cell 1 is left to grant.
	l1 := other.lease()
	if l1 == nil || l1.Index != 1 {
		t.Fatalf("lease after the late accept = %+v, want cell 1", l1)
	}
	if l := other.lease(); l != nil {
		t.Fatalf("late-accepted cell granted again: %+v", l)
	}
	held := &Lease{ID: prev + "-adopt-0001-8", Sweep: "adopt", Index: 1, Digest: cfgs[1].Digest()}
	if hb := survivor.heartbeat(held); !hb.Gone || hb.OK {
		t.Fatalf("heartbeat on a cell held here = %+v, want gone", hb)
	}
	if hb := survivor.heartbeat(foreign); !hb.Gone || hb.OK {
		t.Fatalf("heartbeat on a settled cell = %+v, want gone", hb)
	}
	other.complete(l1, true, 8)

	res, errs := wait()
	if errs[0] != nil || res[0] == nil || res[0].Runtime != 7 {
		t.Fatalf("cell 0 = %+v err %v, want the foreign lease's result", res[0], errs[0])
	}
	if st := c.Status(); st.LateAccepts != 1 || st.Duplicates != 0 || st.Reclaims != 0 {
		t.Fatalf("final status = %+v, want one late accept", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(cell0, []runner.Status{runner.StatusRunning, runner.StatusOK}) {
		t.Fatalf("cell 0 outcomes = %v, want [running ok]", cell0)
	}
}

// nonceOf returns a lease ID's coordinator nonce.
func nonceOf(id string) string {
	return strings.SplitN(id, "-", 2)[0]
}

// TestFleetTokenAuth: with a token configured, every /fleet/* request
// without the bearer secret is 401; /healthz stays open; a worker
// configured with the token completes a campaign normally.
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
	resp, err := http.Get(srv.URL + PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s status = %d, want 200 without token", PathHealthz, resp.StatusCode)
	}

	wait := startCampaign(t, c, "auth", tinyCfgs(1), runner.Policy{})
	runWorker(t, c, NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "tokened", Token: "s3cret",
		PollInterval: 2 * time.Millisecond, Log: testLogger(t)}))
	res, errs := wait()
	if errs[0] != nil || res[0] == nil {
		t.Fatalf("authorized worker campaign: res %v err %v", res[0], errs[0])
	}
}
