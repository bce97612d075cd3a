package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"inpg/internal/runner"
)

// TestReconnectDelaySchedule pins the worker's backoff schedule: doubling
// from ReconnectBase, capped at ReconnectMax, immune to shift overflow.
func TestReconnectDelaySchedule(t *testing.T) {
	base, max := 100*time.Millisecond, 5*time.Second
	for fails, want := range map[int]time.Duration{
		0:   0,
		1:   100 * time.Millisecond,
		2:   200 * time.Millisecond,
		3:   400 * time.Millisecond,
		6:   3200 * time.Millisecond,
		7:   5 * time.Second, // 6.4s capped
		100: 5 * time.Second, // shift clamped, no overflow
	} {
		if got := reconnectDelay(fails, base, max); got != want {
			t.Errorf("reconnectDelay(%d) = %v, want %v", fails, got, want)
		}
	}
	// Degenerate base with huge fail counts must still land on max, not
	// a negative (overflowed) duration.
	if got := reconnectDelay(64, time.Nanosecond, max); got <= 0 || got > max {
		t.Errorf("overflow-prone delay = %v", got)
	}
}

// TestWorkerResendAfterLostAckAcrossRestart: the coordinator accepts a
// completion's delivery attempts with 503 twice (down across a restart)
// before acknowledging. The worker must resend the byte-identical report
// each time, pacing the retries on the reconnect backoff schedule.
func TestWorkerResendAfterLostAckAcrossRestart(t *testing.T) {
	cfg := tinyCfg(1)
	var (
		mu        sync.Mutex
		leased    bool
		bodies    [][]byte
		completes int
	)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		defer mu.Unlock()
		enc := json.NewEncoder(rw)
		switch r.URL.Path {
		case PathLease:
			if leased {
				enc.Encode(LeaseResponse{Shutdown: true})
				return
			}
			leased = true
			enc.Encode(LeaseResponse{Lease: &Lease{ID: "L1", Sweep: "s", Index: 0,
				Digest: "d0", Config: cfg, TTLMillis: 60_000}})
		case PathHeartbeat:
			enc.Encode(HeartbeatResponse{OK: true})
		case PathComplete:
			completes++
			bodies = append(bodies, body)
			if completes <= 2 {
				http.Error(rw, "coordinator restarting", http.StatusServiceUnavailable)
				return
			}
			enc.Encode(CompletionResponse{Accepted: true})
		}
	}))
	defer srv.Close()

	var sleptMu sync.Mutex
	var slept []time.Duration
	w := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "resender",
		ReconnectBase: 10 * time.Millisecond, ReconnectMax: 40 * time.Millisecond,
		Sleep: func(d time.Duration) {
			sleptMu.Lock()
			slept = append(slept, d)
			sleptMu.Unlock()
		},
		Log: testLogger(t)})
	w.Run()

	mu.Lock()
	defer mu.Unlock()
	if completes != 3 {
		t.Fatalf("completion deliveries = %d, want 3 (two lost acks + accept)", completes)
	}
	if !bytes.Equal(bodies[0], bodies[1]) || !bytes.Equal(bodies[1], bodies[2]) {
		t.Fatal("resent completion reports differ from the original")
	}
	if w.Completed() != 1 {
		t.Fatalf("worker completed = %d, want 1 (resends are one cell)", w.Completed())
	}
	sleptMu.Lock()
	defer sleptMu.Unlock()
	// The only blocking waits were the two delivery retries, on the
	// backoff schedule (no idle polls: the restarted coordinator's next
	// lease answer was Shutdown).
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("sleeps = %v, want %v", slept, want)
	}
}

// TestWorkerDrainWhileCoordinatorDown: with the coordinator answering
// nothing but 503, the worker's reconnect backoff must cap at
// ReconnectMax, and Drain must still get it to exit promptly — the fake
// clock counts the waits so the test spends no real wall time backing
// off.
func TestWorkerDrainWhileCoordinatorDown(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	var w *Worker
	var slept []time.Duration
	w = NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "drainer",
		ReconnectBase: 100 * time.Millisecond, ReconnectMax: 400 * time.Millisecond,
		Sleep: func(d time.Duration) {
			slept = append(slept, d)
			if len(slept) == 6 {
				w.Drain()
			}
		},
		Log: testLogger(t)})
	done := make(chan struct{})
	go func() {
		w.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit on Drain while the coordinator was down")
	}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 400 * time.Millisecond,
		400 * time.Millisecond, 400 * time.Millisecond,
	}
	if len(slept) != len(want) {
		t.Fatalf("sleeps = %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (schedule %v)", i, slept[i], want[i], slept)
		}
	}
	if !w.Draining() {
		t.Fatal("worker not draining")
	}
}

// heartbeatUntil runs the worker's heartbeat loop for a lease held
// from a previous coordinator; stop ends it and done closes once it has
// returned. The test's cleanup stops the loop and waits for it.
func heartbeatUntil(t *testing.T, w *Worker, l *Lease) (stop func(), done chan struct{}) {
	stopCh, done := make(chan struct{}), make(chan struct{})
	go func() {
		w.heartbeatLoop(l, stopCh)
		close(done)
	}()
	var once sync.Once
	stop = func() { once.Do(func() { close(stopCh) }) }
	t.Cleanup(func() {
		stop()
		<-done
	})
	return stop, done
}

// TestWorkerAdoptDeniedStopsHeartbeats: a restarted coordinator adopts
// no lease a previous coordinator process granted, even one naming an
// open cell under its current digest. The worker's heartbeat on it is
// answered gone and the loop ends on its own; the cell is granted
// afresh and the campaign finishes.
func TestWorkerAdoptDeniedStopsHeartbeats(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Minute, Log: testLogger(t)})
	srv := serve(t, c)
	cfgs := tinyCfgs(1)
	wait := startCampaign(t, c, "s", cfgs, runner.Policy{})

	w := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "denied", Log: testLogger(t)})
	l := &Lease{ID: "0123456789ab-s-0000-1", Sweep: "s", Index: 0, Digest: cfgs[0].Digest(), TTLMillis: 9}
	_, done := heartbeatUntil(t, w, l)
	select {
	case <-done: // returned without stop being closed
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat loop kept renewing a previous coordinator's lease")
	}
	if st := c.Status(); st.LeasesOutstanding != 0 {
		t.Fatalf("status after the denied heartbeat = %+v, want no lease", st)
	}

	f := &fakeWorker{t: t, url: srv.URL, id: "other"}
	l0 := f.lease()
	if l0 == nil || l0.Index != 0 {
		t.Fatalf("lease after the denied heartbeat = %+v, want cell 0", l0)
	}
	f.complete(l0, true, 1)
	if res, errs := wait(); errs[0] != nil || res[0] == nil || res[0].Runtime != 1 {
		t.Fatalf("cell 0 = %+v err %v", res[0], errs[0])
	}
}
