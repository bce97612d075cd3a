package fleet

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inpg"
	"inpg/internal/runner"
)

// Coordinator defaults.
const (
	// DefaultLeaseTTL is how long a granted lease lives without a
	// heartbeat: long enough that an ordinary heartbeat cadence (TTL/3)
	// survives scheduling hiccups, short enough that a killed worker's
	// cells are re-dispatched within seconds.
	DefaultLeaseTTL = 10 * time.Second
	// DefaultQuarantineAfter is how many distinct workers must fail the
	// same digest before the coordinator quarantines the cell instead of
	// re-dispatching it: two independent machines failing the same
	// configuration points at the cell, not the host.
	DefaultQuarantineAfter = 2
)

// Config tunes a Coordinator. The zero value selects every default.
type Config struct {
	// LeaseTTL is the lease time-to-live (DefaultLeaseTTL when 0).
	LeaseTTL time.Duration
	// QuarantineAfter quarantines a cell once this many distinct workers
	// have failed its digest (DefaultQuarantineAfter when 0). As a
	// backstop against a single-worker fleet bouncing one bad cell
	// forever, a cell is also quarantined after 2×QuarantineAfter total
	// failures regardless of how many workers produced them.
	QuarantineAfter int
	// ManifestDir is ignored. Per-run manifests land through the
	// observer plumbing local sweeps use (the coordinator does not write
	// them), and a killed coordinator is restarted with -resume on their
	// directory.
	//
	// Deprecated: ManifestDir has no effect; leave it empty.
	ManifestDir string
	// Token, when non-empty, is the shared bearer secret every /fleet/*
	// request must present (Authorization: Bearer <token>, compared in
	// constant time). /healthz stays open.
	Token string
	// ChaosKillAfter, when > 0, crashes the coordinator (via Exit)
	// immediately after granting its Nth lease — mirroring the worker's
	// chaos hook — to exercise a -resume restart while a worker still
	// runs a dead coordinator's lease. The response for the Nth lease is
	// flushed first, so the worker genuinely holds the lease across the
	// crash.
	ChaosKillAfter int
	// Exit is called to kill the process on chaos crash (default
	// os.Exit); tests inject a no-op so the "crash" stays in-process
	// (the coordinator marks itself dead first either way: handlers
	// answer 503 and RunCampaign returns with typed errors).
	Exit func(code int)
	// Log, when set, receives structured records: one summary per
	// campaign and infrastructure warnings, tagged with sweep, cell,
	// worker and digest where applicable. Nil discards them.
	Log *slog.Logger
	// Now overrides the clock (tests); nil selects time.Now.
	Now func() time.Time
}

type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone
)

// cell is one sweep configuration's dispatch state.
type cell struct {
	index      int
	cfg        inpg.Config
	digest     string
	state      cellState
	leaseID    string // current lease, "" when pending/done
	dispatches int

	res *inpg.Results
	err *runner.RunError

	failedBy  map[string]bool // distinct workers that reported failure
	failCount int
}

// lease is one outstanding grant.
type lease struct {
	id      string
	index   int
	worker  string
	expires time.Time
}

// workerInfo is the coordinator's view of one worker.
type workerInfo struct {
	id        string
	lastSeen  time.Time
	completed int
	failed    int
}

// campaign is one sweep's dispatch ledger.
type campaign struct {
	sweep      string
	cells      []*cell
	queue      []int // pending cell indexes, FIFO
	remaining  int
	retries    int
	runTimeout time.Duration
	observer   runner.Observer
	done       chan struct{}
	// emitting counts handlers that took outcomes of this campaign under
	// mu and are still handing them to observer; RunCampaign waits for
	// it, so no observer call outlives the campaign it reports on.
	emitting sync.WaitGroup

	// crash is closed when the coordinator chaos-crashes mid-campaign;
	// RunCampaign unblocks on it and returns typed errors for the
	// unresolved cells.
	crash chan struct{}

	reclaims, duplicates, lateAccepts, conflicts, quarantined, skipped int

	// workerCompleted counts accepted completions per worker ID.
	workerCompleted map[string]int
}

// Coordinator hands out sweep cells as leases over HTTP and folds worker
// completions back into index-aligned results. It implements
// http.Handler (mount at the server root) and the experiments package's
// CampaignRunner interface (RunCampaign).
type Coordinator struct {
	cfg Config
	log *slog.Logger
	// nonce prefixes every lease ID this coordinator grants, so a lease
	// another coordinator process granted never matches one of ours.
	nonce string

	// dead is set by a chaos crash: every handler answers 503 from then
	// on, mirroring a killed process even when the test-injected Exit is
	// a no-op.
	dead atomic.Bool

	mu       sync.Mutex
	camp     *campaign
	leases   map[string]*lease
	workers  map[string]*workerInfo
	shutdown bool
	// grants counts leases granted over the coordinator's lifetime: it
	// numbers lease IDs and trips the chaos kill.
	grants int

	// Counters for this coordinator process, across its campaigns; a
	// restart starts them at zero.
	totReclaims, totDuplicates, totLate, totQuarantined, totConflicts int
}

// NewCoordinator builds a coordinator ready to serve workers; campaigns
// are started with RunCampaign.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = DefaultQuarantineAfter
	}
	log := cfg.Log
	if log == nil {
		log = discardLog
	}
	return &Coordinator{
		cfg:     cfg,
		log:     log,
		nonce:   newNonce(),
		leases:  map[string]*lease{},
		workers: map[string]*workerInfo{},
	}
}

// newNonce draws a coordinator's lease-ID prefix: random, so that two
// coordinator processes serving the same sweep never share one.
func newNonce() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// No entropy source: the start time still differs per process.
		return strconv.FormatInt(time.Now().UnixNano(), 36)
	}
	return hex.EncodeToString(b[:])
}

func (c *Coordinator) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now()
}

// Shutdown orders the fleet down: subsequent lease polls answer
// Shutdown, on which workers exit their serve loops. It does not abort
// an active campaign — call it once the last campaign has returned.
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	c.shutdown = true
	c.mu.Unlock()
}

// RunCampaign distributes one sweep across the fleet and blocks until
// every cell is resolved. It mirrors runner.RunResilient's contract: the
// returned slices are index-aligned with cfgs, results[i] is non-nil
// exactly when the cell succeeded (skipped cells stay nil for the caller
// to prefill), errs[i] is the final typed failure of a quarantined cell.
// Policy semantics carried over: Skip elides cells (one StatusSkipped
// outcome each), which is how -resume restarts a killed coordinator's
// sweep, PreRun maps stored configurations before dispatch,
// Retries/RunTimeout ship to workers as the per-lease attempt policy,
// and Observer sees claim and completion outcomes exactly as local
// sweeps do — which is how manifest emission and the live monitor work
// unchanged. Outcome.Worker is always 0: a worker runs several cells at
// once, and Status.Workers is the fleet's per-worker view. PreAttempt
// cannot cross the wire and is ignored; worker-side chaos uses the
// worker's own chaos flags.
//
// Dispatch is at-least-once: there is no campaign-wide deadline, and a
// cell is re-dispatched until some worker completes it or enough
// distinct workers fail it to quarantine. A fleet with no live workers
// therefore blocks until one connects.
func (c *Coordinator) RunCampaign(sweep string, cfgs []inpg.Config, p runner.Policy) ([]*inpg.Results, []*runner.RunError) {
	camp := &campaign{
		sweep:           sweep,
		retries:         p.Retries,
		runTimeout:      p.RunTimeout,
		observer:        p.Observer,
		done:            make(chan struct{}),
		crash:           make(chan struct{}),
		workerCompleted: map[string]int{},
	}
	var settled []runner.Outcome
	for i, cfg := range cfgs {
		if p.PreRun != nil {
			cfg = p.PreRun(i, cfg)
		}
		cl := &cell{index: i, cfg: cfg, digest: cfg.Digest(), failedBy: map[string]bool{}}
		if p.Skip != nil && p.Skip(i) {
			cl.state = cellDone
			camp.skipped++
			settled = append(settled, runner.Outcome{
				Index: i, Done: true, Status: runner.StatusSkipped, Cfg: cfg})
		} else {
			camp.queue = append(camp.queue, i)
			camp.remaining++
		}
		camp.cells = append(camp.cells, cl)
	}

	// Captured before the campaign is published: once c.camp is set,
	// handlers mutate remaining under mu.
	hasWork := camp.remaining > 0

	c.mu.Lock()
	if c.camp != nil {
		c.mu.Unlock()
		panic("fleet: RunCampaign while another campaign is active")
	}
	c.camp = camp
	c.mu.Unlock()

	if p.Observer != nil {
		for _, o := range settled {
			p.Observer(o)
		}
	}

	crashed := false
	if hasWork {
		stop := make(chan struct{})
		go c.reclaimLoop(stop)
		select {
		case <-camp.done:
		case <-camp.crash:
			crashed = true
		}
		close(stop)
	}

	c.mu.Lock()
	c.camp = nil
	// Leases are campaign-scoped: whatever is still outstanding belongs
	// to workers whose completions will now be answered as duplicates.
	c.leases = map[string]*lease{}
	c.mu.Unlock()
	// The last completion closes done while other handlers may still be
	// emitting their outcomes (a manifest write, the caller's observer).
	camp.emitting.Wait()

	results := make([]*inpg.Results, len(cfgs))
	errs := make([]*runner.RunError, len(cfgs))
	for i, cl := range camp.cells {
		results[i], errs[i] = cl.res, cl.err
		if crashed && cl.state != cellDone {
			errs[i] = &runner.RunError{Index: i, Cause: runner.CauseCanceled,
				Digest: cl.digest,
				Err:    errors.New("fleet: coordinator crashed mid-campaign")}
		}
	}
	if !crashed {
		c.log.Info("campaign done",
			"sweep", sweep, "cells", len(camp.cells), "skipped", camp.skipped,
			"workers", len(camp.workerCompleted), "worker_completions", camp.workerCompleted,
			"reclaimed", camp.reclaims, "quarantined", camp.quarantined,
			"duplicates", camp.duplicates, "late_accepts", camp.lateAccepts,
			"digest_conflicts", camp.conflicts)
	}
	return results, errs
}

// crash kills the coordinator mid-campaign (chaos hook): it marks the
// handler surface dead (503s), unblocks RunCampaign via camp.crash, and
// calls the configured Exit. With the default os.Exit the process dies
// here; tests inject a no-op and observe the dead coordinator in
// process.
func (c *Coordinator) crash(reason string) {
	if !c.dead.CompareAndSwap(false, true) {
		return
	}
	c.mu.Lock()
	if c.camp != nil {
		close(c.camp.crash)
	}
	c.mu.Unlock()
	c.log.Warn("coordinator crashing", "reason", reason)
	exit := c.cfg.Exit
	if exit == nil {
		exit = os.Exit
	}
	exit(1)
}

// reclaimLoop periodically sweeps expired leases while a campaign runs.
func (c *Coordinator) reclaimLoop(stop chan struct{}) {
	interval := c.cfg.LeaseTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.reclaimExpired()
		}
	}
}

// reclaimExpired re-queues cells whose lease deadline passed and emits
// the matching observer outcomes.
func (c *Coordinator) reclaimExpired() {
	c.mu.Lock()
	now := c.now()
	var emit []runner.Outcome
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		if o, ok := c.reclaimLeaseLocked(l); ok {
			emit = append(emit, o)
		}
		delete(c.leases, id)
	}
	flush := c.emitLocked(emit...)
	c.mu.Unlock()
	flush()
}

// emitLocked takes outcomes of the current campaign for its observer and
// returns the func that delivers them once mu is released. Until that
// func returns, RunCampaign cannot return. Caller holds mu.
func (c *Coordinator) emitLocked(outs ...runner.Outcome) func() {
	camp := c.camp
	if camp == nil || camp.observer == nil || len(outs) == 0 {
		return func() {}
	}
	camp.emitting.Add(1)
	return func() {
		defer camp.emitting.Done()
		for _, o := range outs {
			camp.observer(o)
		}
	}
}

// reclaimLeaseLocked returns an expired lease's cell to the pending
// queue (when the lease still owns an open cell) and returns the
// StatusRetrying outcome to emit. The caller deletes the lease and holds
// mu.
func (c *Coordinator) reclaimLeaseLocked(l *lease) (runner.Outcome, bool) {
	camp := c.camp
	if camp == nil || l.index >= len(camp.cells) {
		return runner.Outcome{}, false
	}
	cl := camp.cells[l.index]
	if cl.state != cellLeased || cl.leaseID != l.id {
		// The cell was resolved (or re-leased) while this lease aged out;
		// nothing to reclaim.
		return runner.Outcome{}, false
	}
	cl.state = cellPending
	cl.leaseID = ""
	camp.queue = append(camp.queue, l.index)
	camp.reclaims++
	c.totReclaims++
	return runner.Outcome{
		Index: l.index, Done: true,
		Status: runner.StatusRetrying, Attempt: cl.dispatches - 1, Cfg: cl.cfg,
		Err: &runner.RunError{
			Index: l.index, Attempt: cl.dispatches - 1, Cause: runner.CauseTimeout,
			Digest: cl.digest,
			Err:    fmt.Errorf("fleet: lease %s expired on worker %s", l.id, l.worker),
		},
	}, true
}

// touchWorker records a worker contact and returns its info. Caller
// holds mu.
func (c *Coordinator) touchWorkerLocked(id string) *workerInfo {
	w := c.workers[id]
	if w == nil {
		w = &workerInfo{id: id}
		c.workers[id] = w
	}
	w.lastSeen = c.now()
	return w
}

// ServeHTTP demultiplexes the fleet endpoints. Every /fleet/* route is
// behind the bearer token (when configured); /healthz stays open for
// probes.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if c.dead.Load() {
		http.Error(w, "coordinator down", http.StatusServiceUnavailable)
		return
	}
	if strings.HasPrefix(r.URL.Path, "/fleet/") && !c.authorized(r) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="fleet"`)
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return
	}
	switch r.URL.Path {
	case PathLease:
		c.handleLease(w, r)
	case PathHeartbeat:
		c.handleHeartbeat(w, r)
	case PathComplete:
		c.handleComplete(w, r)
	case PathHealthz:
		writeJSON(w, map[string]string{"status": "ok"})
	default:
		http.NotFound(w, r)
	}
}

// authorized checks the shared-secret bearer token in constant time; an
// unset token leaves the fleet open (LAN-trust mode).
func (c *Coordinator) authorized(r *http.Request) bool {
	if c.cfg.Token == "" {
		return true
	}
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(auth, prefix) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(c.cfg.Token)) == 1
}

// handleLease answers a worker poll: reclaim lazily, then grant the next
// pending cell, report idle, or order shutdown.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
		http.Error(w, "bad lease request", http.StatusBadRequest)
		return
	}
	c.reclaimExpired()

	c.mu.Lock()
	c.touchWorkerLocked(req.Worker)
	var resp LeaseResponse
	flush := func() {}
	switch {
	case c.shutdown:
		resp.Shutdown = true
	case c.camp != nil:
		var claim *runner.Outcome
		if resp.Lease, claim = c.grantLocked(req.Worker); claim != nil {
			flush = c.emitLocked(*claim)
		}
	}
	killNow := resp.Lease != nil && c.cfg.ChaosKillAfter > 0 && c.grants == c.cfg.ChaosKillAfter
	c.mu.Unlock()

	flush()
	writeJSON(w, resp)
	if killNow {
		// Chaos: die after the grant response is flushed, so the worker
		// deterministically holds a lease across the crash.
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		c.crash("chaos-kill-coordinator-after")
	}
}

// grantLocked leases the next pending cell to a worker and returns the
// lease with its claim outcome, or nils when the queue is empty. Caller
// holds mu and has checked c.camp.
func (c *Coordinator) grantLocked(worker string) (*Lease, *runner.Outcome) {
	camp := c.camp
	for len(camp.queue) > 0 {
		idx := camp.queue[0]
		camp.queue = camp.queue[1:]
		cl := camp.cells[idx]
		if cl.state != cellPending {
			// Resolved by a late completion while queued; skip.
			continue
		}
		c.grants++
		id := fmt.Sprintf("%s-%s-%04d-%d", c.nonce, camp.sweep, idx, c.grants)
		cl.state = cellLeased
		cl.leaseID = id
		cl.dispatches++
		c.leases[id] = &lease{id: id, index: idx, worker: worker,
			expires: c.now().Add(c.cfg.LeaseTTL)}
		return &Lease{
				ID: id, Sweep: camp.sweep, Index: idx, Digest: cl.digest,
				Config: cl.cfg, TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
				Retries: camp.retries, RunTimeoutNanos: int64(camp.runTimeout),
			}, &runner.Outcome{Index: idx,
				Status: runner.StatusRunning, Attempt: cl.dispatches - 1, Cfg: cl.cfg}
	}
	return nil, nil
}

// handleHeartbeat extends a live lease. A heartbeat arriving after the
// deadline — even before the periodic reclaimer noticed — is too late:
// the lease is reclaimed on the spot and the worker told it is gone, so
// expiry is deterministic rather than racing the sweep interval. A lease
// this coordinator does not hold — resolved, or granted by another
// coordinator process — is gone.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad heartbeat", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.touchWorkerLocked(req.Worker)
	var emit *runner.Outcome
	resp := HeartbeatResponse{}
	now := c.now()
	l := c.leases[req.LeaseID]
	switch {
	case l == nil:
		resp.Gone = true
	case now.Before(l.expires):
		l.expires = now.Add(c.cfg.LeaseTTL)
		resp.OK = true
	default:
		if o, ok := c.reclaimLeaseLocked(l); ok {
			emit = &o
		}
		delete(c.leases, req.LeaseID)
		resp.Gone = true
	}
	flush := func() {}
	if emit != nil {
		flush = c.emitLocked(*emit)
	}
	c.mu.Unlock()
	flush()
	writeJSON(w, resp)
}

// handleComplete folds a worker's completion into the campaign:
// first write wins per cell, duplicates are dropped and counted, and a
// digest mismatch is rejected outright. A report on a lease this
// coordinator never granted — a dead coordinator's, carried across a
// -resume restart — is judged by digest like any late completion.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var rep CompletionReport
	if err := json.NewDecoder(r.Body).Decode(&rep); err != nil || rep.Worker == "" {
		http.Error(w, "bad completion", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	wi := c.touchWorkerLocked(rep.Worker)
	camp := c.camp
	if camp == nil || camp.sweep != rep.Sweep || rep.Index < 0 || rep.Index >= len(camp.cells) {
		// A straggler from a finished campaign: its cell was resolved (or
		// never existed); drop as a duplicate so the worker stops.
		c.totDuplicates++
		c.mu.Unlock()
		writeJSON(w, CompletionResponse{Duplicate: true})
		return
	}
	cl := camp.cells[rep.Index]
	if rep.Digest != cl.digest {
		camp.conflicts++
		c.totConflicts++
		c.mu.Unlock()
		c.log.Warn("rejected completion: digest mismatch",
			"sweep", rep.Sweep, "cell", rep.Index, "worker", rep.Worker,
			"digest", rep.Digest, "want", cl.digest)
		http.Error(w, "digest mismatch", http.StatusConflict)
		return
	}
	var emit []runner.Outcome
	resp := CompletionResponse{}
	delete(c.leases, rep.LeaseID)

	if cl.state == cellDone {
		// Duplicate: the cell was already resolved (reclaimed and re-run
		// elsewhere, or a resent report). First write won; drop this one.
		// The worker holds no claim: a lease on a cell is gone once the
		// cell resolves.
		camp.duplicates++
		c.totDuplicates++
		resp.Duplicate = true
	} else {
		resp.Accepted = true
		// Late: the worker's lease was reclaimed or granted by another
		// coordinator process, so it holds no open claim here and the cell
		// is queued or held by another worker.
		late := cl.leaseID != rep.LeaseID
		if rep.OK {
			if late {
				// Its work is still valid (digest matched) and it got here
				// first. A worker holding the cell now loses its lease and
				// its claim closes without a result; the late worker claims
				// the cell afresh.
				camp.lateAccepts++
				c.totLate++
				if h := c.leases[cl.leaseID]; h != nil {
					delete(c.leases, cl.leaseID)
					emit = append(emit, runner.Outcome{Index: rep.Index, Done: true,
						Status: runner.StatusAbandoned, Cfg: cl.cfg})
				}
				emit = append(emit, runner.Outcome{Index: rep.Index,
					Status: runner.StatusRunning, Attempt: cl.dispatches - 1, Cfg: cl.cfg})
			}
			cl.state = cellDone
			cl.leaseID = ""
			cl.res = rep.Res
			camp.workerCompleted[rep.Worker]++
			wi.completed++
			camp.remaining--
			emit = append(emit, runner.Outcome{Index: rep.Index,
				Done: true, Status: runner.StatusOK, Attempt: rep.Attempt,
				Cfg: cl.cfg, Res: rep.Res, Snapshot: rep.Snapshot,
				WallSeconds: rep.WallSeconds})
		} else {
			cl.failCount++
			cl.failedBy[rep.Worker] = true
			wi.failed++
			rerr := &runner.RunError{Index: rep.Index, Attempt: rep.Attempt,
				Cause: runner.Cause(rep.Cause), Digest: cl.digest,
				Err: errors.New(rep.Error)}
			switch {
			case late:
				// Record the vote only: re-queueing would dispatch the cell
				// again while its current holder still runs it.
			case len(cl.failedBy) >= c.cfg.QuarantineAfter ||
				cl.failCount >= 2*c.cfg.QuarantineAfter:
				cl.state = cellDone
				cl.leaseID = ""
				cl.err = rerr
				camp.quarantined++
				c.totQuarantined++
				camp.remaining--
				emit = append(emit, runner.Outcome{Index: rep.Index,
					Done: true, Status: runner.StatusQuarantined, Attempt: rep.Attempt,
					Cfg: cl.cfg, Err: rerr, WallSeconds: rep.WallSeconds})
			default:
				cl.state = cellPending
				cl.leaseID = ""
				camp.queue = append(camp.queue, rep.Index)
				emit = append(emit, runner.Outcome{Index: rep.Index,
					Done: true, Status: runner.StatusRetrying, Attempt: rep.Attempt,
					Cfg: cl.cfg, Err: rerr, WallSeconds: rep.WallSeconds})
			}
		}
		if camp.remaining == 0 {
			defer close(camp.done)
		}
	}
	flush := c.emitLocked(emit...)
	c.mu.Unlock()
	flush()
	writeJSON(w, resp)
}

// Status snapshots the coordinator's public state.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Shutdown:          c.shutdown,
		LeasesOutstanding: len(c.leases),
		Reclaims:          c.totReclaims,
		Duplicates:        c.totDuplicates,
		LateAccepts:       c.totLate,
		Quarantined:       c.totQuarantined,
		DigestConflicts:   c.totConflicts,
	}
	if c.camp != nil {
		st.Sweep = c.camp.sweep
		st.Cells = len(c.camp.cells)
		st.Completed = c.camp.doneCount()
	}
	held := map[string]int{}
	for _, l := range c.leases {
		held[l.worker]++
	}
	now := c.now()
	for _, wi := range c.workers {
		st.Workers = append(st.Workers, WorkerStatus{
			ID:              wi.id,
			LastSeenSeconds: now.Sub(wi.lastSeen).Seconds(),
			Completed:       wi.completed, Failed: wi.failed,
			Leases: held[wi.id],
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	return st
}

// doneCount is how many of the campaign's cells are resolved.
func (camp *campaign) doneCount() int {
	done := 0
	for _, cl := range camp.cells {
		if cl.state == cellDone {
			done++
		}
	}
	return done
}

// writeJSON serializes a response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
