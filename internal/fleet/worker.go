package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inpg/internal/runner"
)

// discardLog swallows structured logs when no logger is configured.
var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// Worker defaults.
const (
	// DefaultPollInterval paces an idle worker's lease polls.
	DefaultPollInterval = 250 * time.Millisecond
	// DefaultReconnectBase / DefaultReconnectMax bound the exponential
	// backoff a worker applies while the coordinator is unreachable.
	DefaultReconnectBase = 100 * time.Millisecond
	DefaultReconnectMax  = 5 * time.Second
)

// WorkerConfig tunes a fleet worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("http://host:port";
	// the scheme is added when missing).
	Coordinator string
	// ID identifies this worker to the coordinator; defaults to
	// "<hostname>-<pid>".
	ID string
	// Slots is how many cells this worker executes concurrently
	// (default 1). Each slot is an independent poll/execute loop, the
	// fleet's analogue of runner.Policy.Workers.
	Slots int
	// PollInterval paces lease polls while the coordinator has no work.
	PollInterval time.Duration
	// ReconnectBase and ReconnectMax bound the exponential backoff while
	// the coordinator is unreachable.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// Token is the fleet's shared bearer secret; sent as
	// "Authorization: Bearer <token>" on every request when non-empty.
	Token string

	// ChaosKillAfter, when > 0, kills the worker (via Exit) immediately
	// after it acquires its Nth lease — mid-lease, before completing —
	// to exercise lease reclaim. Counted across slots.
	ChaosKillAfter int
	// ChaosDropRate, when > 0, is the probability that a completion's
	// response is "lost": the report is delivered, the acknowledgement
	// discarded, and the worker resends — exercising the coordinator's
	// duplicate detection. Decisions are a deterministic keyed hash of
	// (ChaosSeed, sweep, cell index).
	ChaosDropRate float64
	// ChaosSeed keys the drop decisions.
	ChaosSeed int64

	// Exit is called to kill the process on chaos kill (default
	// os.Exit); tests inject a recorder so the "kill" stays in-process.
	Exit func(code int)
	// Sleep overrides the blocking waits in the poll/reconnect/deliver
	// loops (tests drive them with a fake clock); nil selects time.Sleep.
	Sleep func(d time.Duration)
	// Log, when set, receives structured worker lifecycle records; every
	// record carries a "worker" attribute and lease-scoped records add
	// cell/lease/digest. Nil discards.
	Log *slog.Logger
	// HTTPClient overrides the transport (tests); nil selects a plain
	// http.Client.
	HTTPClient *http.Client
}

// Worker polls a coordinator for leases and executes them through the
// resilient attempt machinery of internal/runner, streaming completions
// back. It survives coordinator restarts (exponential-backoff reconnect)
// and drains gracefully on request: the leased cell finishes, new ones
// are declined.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	log    *slog.Logger

	draining atomic.Bool
	killed   atomic.Bool

	leasesAcquired atomic.Int64
	completed      atomic.Int64
}

// NewWorker builds a worker; Run starts it.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Coordinator != "" && !strings.Contains(cfg.Coordinator, "://") {
		cfg.Coordinator = "http://" + cfg.Coordinator
	}
	cfg.Coordinator = strings.TrimRight(cfg.Coordinator, "/")
	if cfg.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.ReconnectBase <= 0 {
		cfg.ReconnectBase = DefaultReconnectBase
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = DefaultReconnectMax
	}
	if cfg.Exit == nil {
		cfg.Exit = os.Exit
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{}
	}
	log := cfg.Log
	if log == nil {
		log = discardLog
	}
	return &Worker{cfg: cfg, client: client, log: log.With("worker", cfg.ID)}
}

// ID returns the worker's fleet identity.
func (w *Worker) ID() string { return w.cfg.ID }

// Completed returns how many leases this worker has completed (accepted
// or deduplicated).
func (w *Worker) Completed() int64 { return w.completed.Load() }

// Drain puts the worker into graceful-shutdown mode: slots finish the
// cell they hold and then decline further leases, so Run returns once
// in-flight work is delivered. Safe to call from a signal handler.
func (w *Worker) Drain() {
	if w.draining.CompareAndSwap(false, true) {
		w.log.Info("draining: finishing leased cells, declining new ones")
	}
}

// Draining reports whether Drain was called.
func (w *Worker) Draining() bool { return w.draining.Load() }

// Run serves leases until the coordinator orders shutdown, Drain
// finishes the in-flight cells, or chaos kills the worker. It blocks for
// the worker's lifetime.
func (w *Worker) Run() {
	var wg sync.WaitGroup
	for s := 0; s < w.cfg.Slots; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.slotLoop(slot)
		}(s)
	}
	wg.Wait()
}

// slotLoop is one slot's poll/execute cycle.
func (w *Worker) slotLoop(slot int) {
	connectFails := 0
	for {
		if w.draining.Load() || w.killed.Load() {
			return
		}
		var resp LeaseResponse
		status, err := w.postJSON(PathLease, LeaseRequest{Worker: w.cfg.ID}, &resp)
		if err != nil || status/100 != 2 {
			connectFails++
			d := reconnectDelay(connectFails, w.cfg.ReconnectBase, w.cfg.ReconnectMax)
			if connectFails == 1 || connectFails%10 == 0 {
				w.log.Warn("coordinator unreachable; retrying",
					"tries", connectFails, "err", err, "retry_in", d)
			}
			w.cfg.Sleep(d)
			continue
		}
		if connectFails > 0 {
			w.log.Info("coordinator reachable again", "tries", connectFails)
			connectFails = 0
		}
		if resp.Shutdown {
			w.log.Info("coordinator ordered shutdown")
			return
		}
		if resp.Lease == nil {
			w.cfg.Sleep(w.cfg.PollInterval)
			continue
		}
		n := w.leasesAcquired.Add(1)
		if w.cfg.ChaosKillAfter > 0 && n >= int64(w.cfg.ChaosKillAfter) {
			// Die holding the lease: no completion, no more heartbeats —
			// the coordinator's reclaim machinery must recover the cell.
			w.killed.Store(true)
			w.log.Warn("chaos kill holding lease",
				"lease", resp.Lease.ID, "cell", resp.Lease.Index)
			w.cfg.Exit(1)
			return
		}
		w.execute(resp.Lease)
	}
}

// execute runs one leased cell under heartbeats and delivers the
// completion.
func (w *Worker) execute(l *Lease) {
	stopHB := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeatLoop(l, stopHB)
	}()

	res, snap, wall, attempt, rerr := runner.RunOne(l.Config, runner.Policy{
		Retries:    l.Retries,
		RunTimeout: time.Duration(l.RunTimeoutNanos),
		Log:        w.log.With("cell", l.Index, "digest", l.Digest),
	})
	close(stopHB)
	hbWG.Wait()

	rep := CompletionReport{
		Worker: w.cfg.ID, LeaseID: l.ID, Sweep: l.Sweep, Index: l.Index,
		Digest: l.Digest, OK: rerr == nil, Res: res, Snapshot: snap,
		WallSeconds: wall, Attempt: attempt,
	}
	if rerr != nil {
		rep.Error = rerr.Error()
		rep.Cause = string(rerr.Cause)
	}
	w.deliver(l, rep)
	w.completed.Add(1)
}

// heartbeatLoop renews the lease at TTL/3 until stopped or the
// coordinator reports the lease gone (the run keeps going either way:
// a digest-matched late completion is still worth delivering).
func (w *Worker) heartbeatLoop(l *Lease, stop chan struct{}) {
	interval := time.Duration(l.TTLMillis) * time.Millisecond / 3
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			var resp HeartbeatResponse
			status, err := w.postJSON(PathHeartbeat,
				HeartbeatRequest{Worker: w.cfg.ID, LeaseID: l.ID}, &resp)
			if err != nil || status/100 != 2 {
				continue // transient; the next tick retries
			}
			if resp.Gone {
				w.log.Info("lease gone; finishing anyway",
					"lease", l.ID, "cell", l.Index)
				return
			}
		}
	}
}

// deliver sends a completion report until the coordinator acknowledges
// it (or permanently rejects it with a digest conflict). Under
// ChaosDropRate the first acknowledgement is deterministically "lost"
// and the report resent, exercising duplicate detection.
func (w *Worker) deliver(l *Lease, rep CompletionReport) {
	dropOnce := w.chaosDrop(l)
	connectFails := 0
	for {
		var resp CompletionResponse
		status, err := w.postJSON(PathComplete, rep, &resp)
		switch {
		case err == nil && status == http.StatusConflict:
			w.log.Error("completion rejected: digest conflict",
				"cell", l.Index, "digest", rep.Digest)
			return
		case err != nil || status/100 != 2:
			connectFails++
			w.cfg.Sleep(reconnectDelay(connectFails, w.cfg.ReconnectBase, w.cfg.ReconnectMax))
			continue
		}
		connectFails = 0
		if dropOnce {
			// Chaos: the report arrived but the acknowledgement is "lost";
			// resend and let the coordinator dedup.
			dropOnce = false
			w.log.Warn("chaos drop of completion ack; resending", "lease", l.ID)
			continue
		}
		if resp.Duplicate {
			w.log.Info("completion was a duplicate (first write won)", "cell", l.Index)
		}
		return
	}
}

// chaosDrop decides deterministically whether this lease's completion
// acknowledgement is dropped once. It keys on the cell, not the lease
// ID, whose coordinator nonce differs from run to run.
func (w *Worker) chaosDrop(l *Lease) bool {
	if w.cfg.ChaosDropRate <= 0 {
		return false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "drop/%d/%s/%d", w.cfg.ChaosSeed, l.Sweep, l.Index)
	return float64(h.Sum64()%1_000_000)/1_000_000 < w.cfg.ChaosDropRate
}

// reconnectDelay is the exponential backoff schedule for an unreachable
// coordinator.
func reconnectDelay(fails int, base, max time.Duration) time.Duration {
	if fails <= 0 {
		return 0
	}
	shift := uint(fails - 1)
	if shift > 20 {
		shift = 20
	}
	d := base << shift
	if d <= 0 || d > max {
		d = max
	}
	return d
}

// postJSON posts a JSON body to the coordinator (with the bearer token
// when configured) and decodes the JSON response into out (when non-nil
// and the status is 2xx).
func (w *Worker) postJSON(path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.cfg.Token)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}
