// Package fleet turns the single-machine campaign runner into a
// coordinator/worker architecture over HTTP: the coordinator loads a
// sweep's full configuration list and hands out leases (cell index +
// config + digest + deadline) to workers that poll for work; workers run
// each leased cell once through runner.RunOne in a serve loop and stream
// outcomes back.
//
// The design goal is that a fleet sweep behaves exactly like a local
// one. Every cell runs once: the first completion whose digest matches
// settles it, OK or failed, as a local run settles its cell, and later
// duplicates are detected and dropped. A failed cell is not dispatched
// again (the simulation is deterministic, so it would fail again);
// -resume re-runs it. The one re-dispatch is recovery from a dead or
// wedged worker, which sends no report: its lease expires and the cell
// goes to a survivor. Because every simulation is single-threaded and
// seeded, running a cell anywhere produces bit-identical results, so a
// sweep executed by a chaos-ridden fleet renders byte-identically to a
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
	// Worker identifies the polling worker across requests; the
	// per-worker completion counts key on it.
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
	// RunTimeoutNanos ships the campaign's per-run deadline to the
	// worker (runner.Policy.RunTimeout).
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
// (index + digest) and the result or the typed failure.
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

	// Error and Cause describe the failure when OK is false
	// (runner.RunError's Err text and Cause, flattened for the wire).
	Error string `json:"error,omitempty"`
	Cause string `json:"cause,omitempty"`
}

// CompletionResponse acknowledges a completion. Duplicate reports that
// the cell was already resolved (first write won) and this report was
// dropped; the worker must not resend.
type CompletionResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// WorkerStatus is one fleet worker's completion and failure counts.
type WorkerStatus struct {
	ID        string `json:"id"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
}

// Status is the coordinator's public state: the active campaign's
// progress plus the counters of this coordinator process. The fleet
// tests read it; people read the coordinator's campaign done log line.
type Status struct {
	Sweep     string `json:"sweep,omitempty"`
	Cells     int    `json:"cells"`
	Completed int    `json:"completed"`
	Shutdown  bool   `json:"shutdown,omitempty"`

	LeasesOutstanding int `json:"leases_outstanding"`
	// Counters across this process's campaigns (a restarted coordinator
	// starts them at zero): leases reclaimed after expiry, duplicate
	// completions dropped, late completions accepted after their lease
	// was reclaimed (or granted by another coordinator process), and
	// completions rejected for a digest mismatch.
	Reclaims        int `json:"reclaims"`
	Duplicates      int `json:"duplicates"`
	LateAccepts     int `json:"late_accepts"`
	DigestConflicts int `json:"digest_conflicts"`

	Workers []WorkerStatus `json:"workers,omitempty"`
}
