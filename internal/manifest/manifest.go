// Package manifest emits one machine-readable JSON artifact per
// experiment run: the configuration that produced it, the mechanism and
// lock under test, the headline results (inpg.Summary), the final
// telemetry counter snapshot, and the wall time it took — the record
// that makes a figure auditable after the fact (which run produced this
// bar, under which seed, with which counters). Manifests are written
// next to figure outputs by internal/experiments and cmd/inpgsim.
package manifest

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"inpg"
	"inpg/internal/metrics"
	"inpg/internal/runner"
)

// SchemaVersion identifies the manifest layout; bump on breaking change.
// v2 added failure records: status, cause class, config digest and the
// diagnostics summary (failed records written before sweeps ran each cell
// once also carry an "attempt" number, which readers ignore). v3 added
// the network switching-activity summary field. v4 added a stored
// lock-journey summary block. v5 stores the summary as inpg.Summary and
// drops two copies: the engine block (its final cycle is the summary's
// runtime) and the journey block (JourneyFromSnapshot derives it from
// the metrics snapshot). Readers ignore both blocks in v3 and v4
// manifests.
const SchemaVersion = 5

// minSchemaVersion is the oldest layout Validate accepts: v3 and v4
// manifests on disk stay resumable.
const minSchemaVersion = 3

// Kind is the manifest's type tag.
const Kind = "inpg-run-manifest"

// Run statuses recorded in a manifest.
const (
	// StatusOK marks a run that completed and produced results.
	StatusOK = "ok"
	// StatusFailed marks a run that failed; Error, Cause and (when
	// available) Diag describe how.
	StatusFailed = "failed"
)

// DiagSummary is the compact failure diagnosis embedded in a failed run's
// manifest: enough to triage a wedged cell from the artifact alone (the
// full Diagnostics dump stays on stderr).
type DiagSummary struct {
	Cycle      uint64 `json:"cycle"`
	Unfinished int    `json:"unfinished_threads"`
	Threads    int    `json:"threads"`
	InFlight   int    `json:"packets_in_flight"`
	DeadLinks  int    `json:"dead_links"`
}

// Manifest is one run's full record.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	Kind          string `json:"kind"`

	// Sweep and Index locate the run inside its experiment: the sweep
	// name (e.g. "fig11", "single") and the run's submission index.
	Sweep string `json:"sweep"`
	Index int    `json:"index"`

	Mechanism string `json:"mechanism"`
	Lock      string `json:"lock"`
	Seed      int64  `json:"seed"`

	// Config is the full simulation configuration, embedded verbatim so a
	// manifest alone suffices to reproduce its run.
	Config inpg.Config `json:"config"`

	// ConfigDigest fingerprints Config (inpg.Config.Digest); resume
	// matches it against the current sweep's configurations to decide
	// which cells a prior run's manifests still cover.
	ConfigDigest string `json:"config_digest"`

	// WallSeconds is host time, the one deliberately nondeterministic
	// field; determinism comparisons must exclude it (see Canonical).
	WallSeconds float64 `json:"wall_seconds"`

	// Status is StatusOK or StatusFailed. Failed manifests carry the
	// error text, its cause class (runner.Cause) and — when the failure
	// yielded a diagnosis — a compact DiagSummary. Summary is zero when
	// the run failed before producing results.
	Status  string       `json:"status"`
	Error   string       `json:"error,omitempty"`
	Cause   string       `json:"cause,omitempty"`
	Diag    *DiagSummary `json:"diag,omitempty"`
	Summary inpg.Summary `json:"summary"`

	// Metrics is the final counter snapshot (empty when the run was not
	// metered). A journey-traced run's journey.* instruments are in it;
	// JourneyFromSnapshot summarizes them.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// JourneySummary aggregates a run's sampled lock journeys: how many
// completed, how many saw a big-router interception, and the end-to-end
// plus per-stage cycle histograms. For a well-formed snapshot the stage
// sums add up to the end-to-end sum exactly (journey accounting is exact
// by construction); Validate enforces it within one cycle per journey of
// rounding slack.
type JourneySummary struct {
	Completed   uint64 `json:"completed"`
	Intercepted uint64 `json:"intercepted"`
	Dropped     uint64 `json:"dropped"`

	E2E    metrics.HistSummary            `json:"e2e_cycles"`
	Stages map[string]metrics.HistSummary `json:"stage_cycles"`
}

// JourneyFromSnapshot lifts a JourneySummary out of a metric snapshot's
// journey.* instruments; nil when the run was not journey-traced.
func JourneyFromSnapshot(snap *metrics.Snapshot) *JourneySummary {
	if snap == nil {
		return nil
	}
	js := &JourneySummary{Stages: make(map[string]metrics.HistSummary)}
	present := false
	for _, kv := range snap.Values {
		switch kv.Name {
		case "journey.completed":
			js.Completed, present = kv.Value, true
		case "journey.intercepted":
			js.Intercepted = kv.Value
		case "journey.dropped":
			js.Dropped = kv.Value
		}
	}
	for _, h := range snap.Histograms {
		switch {
		case h.Name == "journey.e2e_cycles":
			js.E2E, present = h, true
		case strings.HasPrefix(h.Name, "journey.stage."):
			stage := strings.TrimSuffix(strings.TrimPrefix(h.Name, "journey.stage."), "_cycles")
			js.Stages[stage] = h
		}
	}
	if !present {
		return nil
	}
	return js
}

// Build assembles a manifest from one finished run. res and snap may be
// nil (failed or unmetered runs); runErr may be nil. Failures are
// recorded with their cause class (runner.Classify) and a compact
// diagnostics summary (when the failure carries one).
func Build(sweep string, index int, cfg inpg.Config, res *inpg.Results, snap *metrics.Snapshot, wallSeconds float64, runErr error) Manifest {
	m := Manifest{
		SchemaVersion: SchemaVersion,
		Kind:          Kind,
		Sweep:         sweep,
		Index:         index,
		Mechanism:     cfg.Mechanism.String(),
		Lock:          cfg.Lock.String(),
		Seed:          cfg.Seed,
		Config:        cfg,
		ConfigDigest:  cfg.Digest(),
		WallSeconds:   wallSeconds,
		Status:        StatusOK,
		Metrics:       snap,
	}
	if runErr != nil {
		m.Status = StatusFailed
		m.Error = runErr.Error()
		m.Cause = string(runner.Classify(runErr))
		var simErr *inpg.SimulationError
		if errors.As(runErr, &simErr) && simErr.Diag != nil {
			m.Diag = &DiagSummary{
				Cycle:      uint64(simErr.Cycle),
				Unfinished: simErr.Unfinished,
				Threads:    simErr.Threads,
				InFlight:   simErr.Diag.Net.InFlight,
				DeadLinks:  len(simErr.Diag.Net.DeadLinks()),
			}
		}
	}
	if res != nil {
		m.Summary = res.Summary
	}
	return m
}

// ToResults reconstructs an inpg.Results from the manifest's summary, the
// inverse of Build for every field the figure drivers consume. PerThread
// and Energy are not carried by manifests and stay zero; resume callers
// aggregate only summary-level quantities. Returns nil for failed runs.
func (m *Manifest) ToResults() *inpg.Results {
	if m.Status != StatusOK {
		return nil
	}
	return &inpg.Results{Summary: m.Summary}
}

// Validate checks the manifest against the schema: the small Go checker
// CI and the tests run instead of an external JSON-schema tool.
func (m *Manifest) Validate() error {
	switch {
	case m.SchemaVersion < minSchemaVersion || m.SchemaVersion > SchemaVersion:
		return fmt.Errorf("manifest: schema_version %d, want %d..%d", m.SchemaVersion, minSchemaVersion, SchemaVersion)
	case m.Kind != Kind:
		return fmt.Errorf("manifest: kind %q, want %q", m.Kind, Kind)
	case m.Sweep == "":
		return fmt.Errorf("manifest: empty sweep")
	case m.Index < 0:
		return fmt.Errorf("manifest: negative index %d", m.Index)
	case m.Mechanism == "":
		return fmt.Errorf("manifest: empty mechanism")
	case m.Lock == "":
		return fmt.Errorf("manifest: empty lock")
	case m.WallSeconds < 0:
		return fmt.Errorf("manifest: negative wall_seconds")
	}
	if _, err := inpg.ParseMechanism(m.Mechanism); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	if _, err := inpg.ParseLockKind(m.Lock); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	switch m.Status {
	case StatusOK:
		if m.Error != "" {
			return fmt.Errorf("manifest: status ok with error %q", m.Error)
		}
		if m.Summary.Runtime == 0 {
			return fmt.Errorf("manifest: successful run with zero runtime")
		}
	case StatusFailed:
		if m.Error == "" {
			return fmt.Errorf("manifest: failed run without error text")
		}
	default:
		return fmt.Errorf("manifest: status %q, want %q or %q", m.Status, StatusOK, StatusFailed)
	}
	if m.Metrics != nil {
		for i := 1; i < len(m.Metrics.Values); i++ {
			if m.Metrics.Values[i-1].Name >= m.Metrics.Values[i].Name {
				return fmt.Errorf("manifest: metrics not in sorted order at %q", m.Metrics.Values[i].Name)
			}
		}
	}
	if js := JourneyFromSnapshot(m.Metrics); js != nil {
		if js.E2E.Count != js.Completed {
			return fmt.Errorf("manifest: journey e2e histogram has %d samples, %d journeys completed",
				js.E2E.Count, js.Completed)
		}
		var stageSum uint64
		for name, h := range js.Stages {
			if h.Count != js.Completed {
				return fmt.Errorf("manifest: journey stage %q has %d samples, %d journeys completed",
					name, h.Count, js.Completed)
			}
			stageSum += h.Sum
		}
		// Per-stage cycles must account for the end-to-end latency: exact
		// by construction, with one cycle per journey of rounding slack.
		if diff := absDiff(stageSum, js.E2E.Sum); diff > js.Completed {
			return fmt.Errorf("manifest: journey stage cycles %d do not sum to e2e %d (diff %d > %d journeys)",
				stageSum, js.E2E.Sum, diff, js.Completed)
		}
	}
	return nil
}

// absDiff returns |a-b| without underflow.
func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Canonical returns the manifest with its nondeterministic field zeroed,
// for byte-comparison across worker counts and scheduling modes.
func (m Manifest) Canonical() Manifest {
	m.WallSeconds = 0
	return m
}

// Filename returns the manifest's conventional file name within a sweep
// output directory.
func Filename(sweep string, index int) string {
	return fmt.Sprintf("manifest-%s-%04d.json", sweep, index)
}

// WriteFile writes the manifest as indented JSON into dir under its
// conventional name, creating dir if needed.
func (m *Manifest) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, Filename(m.Sweep, m.Index))
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	return path, WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// WriteFileAtomic writes data to path so that a crash — of the writer or
// the whole host — can never leave a torn file under the final name: the
// bytes land in a dot-prefixed temp file in the same directory, are
// fsynced, and only then renamed over path (a same-directory rename is
// atomic on POSIX). The dot prefix and non-.json extension keep an
// orphaned temp file — a crash between write and rename — invisible to
// ScanDir and inpgvalidate, so it can never be quarantined as .bad or
// mistaken for a manifest. The directory is fsynced best-effort so the
// rename itself is durable too.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Chmod(tmpName, perm); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ScanDir loads every valid manifest for the named sweep from dir, keyed
// by run index. Files that fail to read or validate are quarantined —
// renamed to <name>.bad so they never block a rescan — and reported in
// the returned warnings; a half-written manifest from a killed worker
// must not block resume. A valid manifest recorded for a different sweep
// is left in place (it is someone else's good data) but warned about.
// Either way the scan keeps going and the affected indexes are simply
// gaps to re-run. The only hard error is failing to read the directory.
func ScanDir(dir, sweep string) (map[int]*Manifest, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	found := make(map[int]*Manifest)
	var warnings []string
	prefix := fmt.Sprintf("manifest-%s-", sweep)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || len(name) <= len(prefix) ||
			name[:len(prefix)] != prefix || filepath.Ext(name) != ".json" {
			continue
		}
		path := filepath.Join(dir, name)
		m, err := ReadFile(path)
		switch {
		case err != nil:
			bad := path + ".bad"
			if renameErr := os.Rename(path, bad); renameErr != nil {
				warnings = append(warnings,
					fmt.Sprintf("corrupt manifest %s (quarantine to %s failed: %v): %v", path, bad, renameErr, err))
			} else {
				warnings = append(warnings,
					fmt.Sprintf("quarantined corrupt manifest %s -> %s: %v", path, bad, err))
			}
		case m.Sweep != sweep:
			warnings = append(warnings,
				fmt.Sprintf("ignoring manifest %s: records sweep %q, scanning %q", path, m.Sweep, sweep))
		default:
			found[m.Index] = m
		}
	}
	return found, warnings, nil
}

// ReadFile loads and validates a manifest from disk.
func ReadFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	return &m, nil
}
