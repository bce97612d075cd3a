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
// The coordinator's manifest directory remains the durable store: run
// manifests land exactly as in local sweeps (via the same observer
// plumbing), a campaign journal (campaign-<sweep>.json) records the
// fleet-level account of who ran what, and -resume promotes a partially
// completed fleet run for free.
package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"inpg"
	"inpg/internal/manifest"
	"inpg/internal/metrics"
)

// Endpoint paths served by the coordinator (Coordinator implements
// http.Handler; mount it at the server root).
const (
	PathLease     = "/fleet/lease"
	PathHeartbeat = "/fleet/heartbeat"
	PathComplete  = "/fleet/complete"
	PathStatus    = "/fleet/status"
	// PathAdopt lets a worker re-register a lease it holds from a
	// coordinator incarnation that crashed: the restarted coordinator
	// answers its heartbeat with Reannounce, the worker posts the lease's
	// identity here, and the coordinator adopts the in-flight work if the
	// digest matches the replayed campaign.
	PathAdopt   = "/fleet/adopt"
	PathHealthz = "/healthz"
	// PathMetrics serves the coordinator's aggregated telemetry —
	// campaign counters folded from accepted completions plus a live view
	// assembled from worker heartbeat snapshots — in the Prometheus text
	// exposition format.
	PathMetrics = "/metrics"
)

// LeaseRequest is a worker's poll for work.
type LeaseRequest struct {
	// Worker identifies the polling worker across requests; lease
	// accounting, quarantine votes and the journal's per-worker completion
	// counts key on it.
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
	// Snapshot, when present, is the worker's most recent completed-cell
	// metric snapshot, piggybacked on the heartbeat so the coordinator
	// can serve a live fleet-wide telemetry view on /metrics without a
	// separate reporting channel. Purely observational: the coordinator
	// never acts on it.
	Snapshot *metrics.Snapshot `json:"snapshot,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat. Gone reports that the lease
// no longer exists — expired and reclaimed, or completed by another
// worker — so the heartbeating worker should stop renewing (its eventual
// completion is still accepted or deduplicated by digest). Reannounce
// reports that the lease was granted by a coordinator incarnation that
// since crashed and restarted: the worker should POST the lease's
// identity to /fleet/adopt so its in-flight work survives the outage
// instead of being reclaimed and redone.
type HeartbeatResponse struct {
	OK         bool `json:"ok"`
	Gone       bool `json:"gone,omitempty"`
	Reannounce bool `json:"reannounce,omitempty"`
}

// AdoptRequest re-registers a lease with a restarted coordinator: which
// worker holds it, which cell it maps to, and the digest it is running —
// the coordinator adopts it only if the digest matches the replayed
// campaign (otherwise the worker finishes anyway and its completion is
// judged by the usual digest-matched idempotency).
type AdoptRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
	Sweep   string `json:"sweep"`
	Index   int    `json:"index"`
	Digest  string `json:"digest"`
	Attempt int    `json:"attempt,omitempty"`
}

// AdoptResponse answers an adoption attempt. Adopted means the lease is
// live again (fresh TTL, heartbeats resume as normal); Gone means the
// cell was resolved meanwhile or the digest no longer matches — the
// worker stops renewing but still delivers its completion.
type AdoptResponse struct {
	Adopted bool `json:"adopted"`
	Gone    bool `json:"gone,omitempty"`
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
type WorkerStatus struct {
	ID string `json:"id"`
	// Num is the small integer the coordinator assigned this worker for
	// runner.Outcome.Worker slots (monitor compatibility).
	Num             int     `json:"num"`
	LastSeenSeconds float64 `json:"last_seen_seconds"`
	Completed       int     `json:"completed"`
	Failed          int     `json:"failed"`
	Leases          int     `json:"leases"`
}

// Status is the coordinator's public state: the active campaign's
// progress plus fleet-lifetime counters, served on /fleet/status and
// embedded in the sweep monitor's /vars frame.
type Status struct {
	Sweep     string `json:"sweep,omitempty"`
	Cells     int    `json:"cells"`
	Completed int    `json:"completed"`
	Shutdown  bool   `json:"shutdown,omitempty"`

	LeasesOutstanding int `json:"leases_outstanding"`
	// Fleet-lifetime counters (across campaigns): leases reclaimed after
	// expiry, duplicate completions dropped, late completions accepted
	// after their lease was reclaimed, cells quarantined after distinct
	// workers failed the same digest, and completions rejected for a
	// digest mismatch.
	Reclaims        int `json:"reclaims"`
	Duplicates      int `json:"duplicates"`
	LateAccepts     int `json:"late_accepts"`
	Quarantined     int `json:"quarantined"`
	DigestConflicts int `json:"digest_conflicts"`
	// Adopted counts leases from crashed coordinator incarnations that
	// survived the outage (re-registered or completed on the orphaned
	// lease); Replays counts coordinator restarts that replayed a
	// campaign WAL (including restarts of earlier incarnations, read
	// back from the log).
	Adopted int `json:"adopted"`
	Replays int `json:"replays"`

	Workers []WorkerStatus `json:"workers,omitempty"`
}

// JournalSchemaVersion identifies the campaign journal layout. Version 2
// added the crash-recovery fields (Adopted, Replays, Replayed); version 1
// journals read back with those at zero.
const JournalSchemaVersion = 2

// journalSchemaMin is the oldest journal layout still readable.
const journalSchemaMin = 1

// JournalKind tags a campaign journal file.
const JournalKind = "inpg-campaign-journal"

// Journal is the coordinator's durable account of one fleet campaign,
// written into the manifest directory next to the per-run manifests. It
// is what lets inpgvalidate audit a fleet run: which digest every index
// was supposed to run (cross-checked against the manifests on disk), how
// much each worker completed, and how often the failure machinery fired.
type Journal struct {
	SchemaVersion int    `json:"schema_version"`
	Kind          string `json:"kind"`
	Sweep         string `json:"sweep"`
	Cells         int    `json:"cells"`
	// Digests maps every cell index to the config digest dispatched for
	// it — the idempotency key completions were matched on.
	Digests map[int]string `json:"digests"`
	// WorkerCompletions counts accepted completions per worker ID.
	WorkerCompletions map[string]int `json:"worker_completions"`
	Reclaims          int            `json:"reclaims"`
	Duplicates        int            `json:"duplicates"`
	LateAccepts       int            `json:"late_accepts"`
	DigestConflicts   int            `json:"digest_conflicts"`
	Quarantined       []int          `json:"quarantined,omitempty"`
	// Skipped counts cells satisfied without dispatch (resume hits and
	// pre-screened estimates).
	Skipped int `json:"skipped"`
	// Adopted counts leases that survived a coordinator crash (adopted by
	// a restarted incarnation instead of reclaimed); Replays counts the
	// coordinator restarts that replayed the campaign's WAL; Replayed
	// counts cells resolved at replay time from their on-disk manifests
	// instead of being re-dispatched.
	Adopted  int `json:"adopted"`
	Replays  int `json:"replays"`
	Replayed int `json:"replayed"`
}

// Validate checks the journal against its schema.
func (j *Journal) Validate() error {
	switch {
	case j.SchemaVersion < journalSchemaMin || j.SchemaVersion > JournalSchemaVersion:
		return fmt.Errorf("journal: schema_version %d, want %d..%d", j.SchemaVersion, journalSchemaMin, JournalSchemaVersion)
	case j.Kind != JournalKind:
		return fmt.Errorf("journal: kind %q, want %q", j.Kind, JournalKind)
	case j.Sweep == "":
		return fmt.Errorf("journal: empty sweep")
	case j.Cells < 0:
		return fmt.Errorf("journal: negative cell count %d", j.Cells)
	case len(j.Digests) != j.Cells:
		return fmt.Errorf("journal: %d digests for %d cells", len(j.Digests), j.Cells)
	}
	for idx, d := range j.Digests {
		if idx < 0 || idx >= j.Cells {
			return fmt.Errorf("journal: digest for out-of-range index %d", idx)
		}
		if d == "" {
			return fmt.Errorf("journal: empty digest for index %d", idx)
		}
	}
	return nil
}

// JournalFilename returns the journal's conventional file name within a
// sweep output directory. The distinct prefix keeps it out of
// manifest.ScanDir's resume scan.
func JournalFilename(sweep string) string {
	return fmt.Sprintf("campaign-%s.json", sweep)
}

// WriteJournal writes the journal as indented JSON into dir under its
// conventional name, creating dir if needed.
func WriteJournal(dir string, j *Journal) (string, error) {
	if err := j.Validate(); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, JournalFilename(j.Sweep))
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return "", err
	}
	// Atomic: the journal is the WAL's compaction — a torn snapshot next
	// to a sealed log would be worse than no snapshot at all.
	return path, manifest.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// ReadJournal loads and validates a campaign journal from disk.
func ReadJournal(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var j Journal
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	if err := j.Validate(); err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return &j, nil
}
