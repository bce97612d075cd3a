// Package fleet turns the single-machine campaign runner into a
// coordinator/worker architecture over HTTP: the coordinator loads a
// sweep's full configuration list and hands out leases (cell index +
// config + digest + deadline) to workers that poll for work; workers wrap
// the resilient attempt machinery of internal/runner in a serve loop and
// stream outcomes back.
//
// The design goal is that the whole fleet inherits the resilience
// semantics PR 5 gave one process. Dispatch is at-least-once — a killed
// or wedged worker's lease expires and its cell is re-dispatched to a
// survivor — and made effectively-once by digest-matched idempotency:
// every completion names the configuration digest it ran, the first
// matching completion wins, and later duplicates are detected and
// dropped. Because every simulation is single-threaded and seeded,
// re-running a cell anywhere produces bit-identical results, so a sweep
// executed by a chaos-ridden fleet renders byte-identically to a
// single-process run (pinned by test and CI).
//
// The coordinator keeps no log. Its manifest directory is the durable
// store: run manifests land exactly as in local sweeps (via the same
// observer plumbing), and a killed coordinator is restarted with -resume
// on that directory, which skips every cell with a digest-matched OK
// manifest, as it does for a killed local sweep. Every lease ID starts
// with a nonce drawn once per coordinator, so lease IDs stay unique
// across coordinator processes; a surviving worker's report on a dead
// coordinator's lease is judged by digest like any late completion.
package fleet

import (
	"inpg"
	"inpg/internal/metrics"
)

// Endpoint paths served by the coordinator (Coordinator implements
// http.Handler; mount it at the server root).
const (
	PathLease     = "/fleet/lease"
	PathHeartbeat = "/fleet/heartbeat"
	PathComplete  = "/fleet/complete"
	PathHealthz   = "/healthz"
)

// LeaseRequest is a worker's poll for work.
type LeaseRequest struct {
	// Worker identifies the polling worker across requests; lease
	// accounting, quarantine votes and the per-worker completion counts
	// key on it.
	Worker string `json:"worker"`
}

// Lease grants one sweep cell to one worker until the deadline passes.
// The full configuration travels in the lease, so workers are
// sweep-agnostic: they execute whatever cell they are handed.
type Lease struct {
	ID     string `json:"id"`
	Sweep  string `json:"sweep"`
	Index  int    `json:"index"`
	Digest string `json:"digest"`
	// Config is the exact configuration to execute.
	Config inpg.Config `json:"config"`
	// TTLMillis is the lease's time-to-live; a worker must heartbeat
	// (comfortably) inside it or the coordinator reclaims the cell.
	TTLMillis int64 `json:"ttl_ms"`
	// Retries and RunTimeoutNanos ship the campaign's per-cell attempt
	// policy to the worker (runner.Policy.Retries / RunTimeout).
	Retries         int   `json:"retries"`
	RunTimeoutNanos int64 `json:"run_timeout_ns"`
}

// LeaseResponse answers a poll: a lease, "no work right now" (nil lease),
// or a shutdown order after which the worker should exit its serve loop.
type LeaseResponse struct {
	Lease    *Lease `json:"lease,omitempty"`
	Shutdown bool   `json:"shutdown,omitempty"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
}

// HeartbeatResponse acknowledges a heartbeat. Gone reports that the lease
// no longer exists — expired and reclaimed, resolved by another worker's
// report, or granted by another coordinator process — so the
// heartbeating worker should stop renewing (its eventual completion is
// still accepted or deduplicated by digest).
type HeartbeatResponse struct {
	OK   bool `json:"ok"`
	Gone bool `json:"gone,omitempty"`
}

// CompletionReport is a worker's final word on a lease: the cell it ran
// (index + digest), the result or the typed failure, and the attempt
// accounting from the worker-local retry loop.
type CompletionReport struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
	Sweep   string `json:"sweep"`
	Index   int    `json:"index"`
	Digest  string `json:"digest"`

	OK          bool              `json:"ok"`
	Res         *inpg.Results     `json:"res,omitempty"`
	Snapshot    *metrics.Snapshot `json:"snapshot,omitempty"`
	WallSeconds float64           `json:"wall_seconds"`

	// Error, Cause and Attempt describe the final failure when OK is
	// false (runner.RunError fields flattened for the wire).
	Error   string `json:"error,omitempty"`
	Cause   string `json:"cause,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
}

// CompletionResponse acknowledges a completion. Duplicate reports that
// the cell was already resolved (first write won) and this report was
// dropped; the worker must not resend.
type CompletionResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// WorkerStatus is one fleet worker's liveness line on the dashboard.
// Leases counts the leases it holds now, one per busy slot.
type WorkerStatus struct {
	ID              string  `json:"id"`
	LastSeenSeconds float64 `json:"last_seen_seconds"`
	Completed       int     `json:"completed"`
	Failed          int     `json:"failed"`
	Leases          int     `json:"leases"`
}

// Status is the coordinator's public state: the active campaign's
// progress plus the counters of this coordinator process. The sweep
// monitor renders it on its progress page and folds it into the fleet
// gauges of its /metrics (Gauges).
type Status struct {
	Sweep     string `json:"sweep,omitempty"`
	Cells     int    `json:"cells"`
	Completed int    `json:"completed"`
	Shutdown  bool   `json:"shutdown,omitempty"`

	LeasesOutstanding int `json:"leases_outstanding"`
	// Counters across this process's campaigns (a restarted coordinator
	// starts them at zero): leases reclaimed after expiry, duplicate
	// completions dropped, late completions accepted after their lease
	// was reclaimed (or granted by another coordinator process), cells
	// quarantined after distinct workers failed the same digest, and
	// completions rejected for a digest mismatch.
	Reclaims        int `json:"reclaims"`
	Duplicates      int `json:"duplicates"`
	LateAccepts     int `json:"late_accepts"`
	Quarantined     int `json:"quarantined"`
	DigestConflicts int `json:"digest_conflicts"`

	Workers []WorkerStatus `json:"workers,omitempty"`
}

// Gauges folds the status into the fleet.* gauges that the sweep
// monitor's /metrics serves.
func (s Status) Gauges() map[string]float64 {
	return map[string]float64{
		"fleet.cells":              float64(s.Cells),
		"fleet.cells_done":         float64(s.Completed),
		"fleet.leases_outstanding": float64(s.LeasesOutstanding),
		"fleet.workers":            float64(len(s.Workers)),
		"fleet.reclaims":           float64(s.Reclaims),
		"fleet.duplicates":         float64(s.Duplicates),
		"fleet.late_accepts":       float64(s.LateAccepts),
		"fleet.quarantined":        float64(s.Quarantined),
		"fleet.digest_conflicts":   float64(s.DigestConflicts),
	}
}
