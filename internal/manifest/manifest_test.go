package manifest

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"inpg"
)

// smallRun executes a tiny metered simulation for manifest fixtures.
func smallRun(t *testing.T) (inpg.Config, *inpg.System, *inpg.Results) {
	t.Helper()
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.Lock = inpg.LockTAS
	cfg.CSPerThread = 2
	cfg.Metrics = true
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, sys, res
}

func TestManifestRoundTrip(t *testing.T) {
	cfg, sys, res := smallRun(t)
	m := Build("fig2", 7, cfg, res, sys.MetricsSnapshot(), 0.25, nil)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Mechanism != "Original" || m.Lock != "TAS" {
		t.Fatalf("mechanism/lock = %q/%q", m.Mechanism, m.Lock)
	}
	if m.Summary.Runtime != res.Runtime || m.Summary.CSCompleted != res.CSCompleted {
		t.Fatalf("summary mismatch: %+v vs %+v", m.Summary, res)
	}
	if m.Metrics == nil || len(m.Metrics.Values) == 0 {
		t.Fatal("metered run produced no metrics in manifest")
	}

	dir := t.TempDir()
	path, err := m.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "manifest-fig2-0007.json" {
		t.Fatalf("file name = %s", filepath.Base(path))
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Canonical(), m.Canonical()) {
		t.Fatal("manifest changed across write/read round trip")
	}
	// The embedded config alone reproduces the run.
	sys2, err := inpg.New(got.Config)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sys2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Runtime != got.Summary.Runtime {
		t.Fatalf("replayed runtime %d != manifest %d", res2.Runtime, got.Summary.Runtime)
	}
}

// TestToResultsReturnsTheRunsResults: the manifest stores the run's
// Results whole, so a resumed cell's Results equal a fresh run's, both
// from the built manifest and after a write and read.
func TestToResultsReturnsTheRunsResults(t *testing.T) {
	cfg, sys, res := smallRun(t)
	m := Build("fig2", 0, cfg, res, sys.MetricsSnapshot(), 0.25, nil)
	if got := m.ToResults(); !reflect.DeepEqual(got, res) {
		t.Fatalf("ToResults = %+v, want the run's %+v", got, res)
	}
	path, err := m.WriteFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	read, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := read.ToResults(); !reflect.DeepEqual(got, res) {
		t.Fatalf("ToResults after a write and read = %+v, want the run's %+v", got, res)
	}
}

// TestJourneyRateAloneWritesJourneys: a library caller that samples
// journeys without turning metrics on still gets them in its manifest,
// one per critical section at rate 1.
func TestJourneyRateAloneWritesJourneys(t *testing.T) {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.Lock = inpg.LockTAS
	cfg.CSPerThread = 2
	cfg.JourneyRate = 1
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := Build("single", 0, cfg, res, sys.MetricsSnapshot(), 0.1, nil)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	js := JourneyFromSnapshot(m.Metrics)
	if js == nil || js.Completed != uint64(res.CSCompleted) {
		t.Fatalf("manifest journeys = %+v, want %d completed", js, res.CSCompleted)
	}
}

func TestManifestFailedRun(t *testing.T) {
	cfg := inpg.DefaultConfig()
	m := Build("res", 0, cfg, nil, nil, 0.1, os.ErrDeadlineExceeded)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Error == "" || m.Summary.Runtime != 0 {
		t.Fatalf("failed-run manifest = %+v", m)
	}
}

// TestManifestFailedRunWithAttemptStillReads: failed manifests written
// while sweeps still retried cells carry an "attempt" number. Readers
// ignore it: such a v4 record (with the engine block v4 wrote) reads,
// validates and scans as failed, so -resume re-runs its cell.
func TestManifestFailedRunWithAttemptStillReads(t *testing.T) {
	cfg := inpg.DefaultConfig()
	m := Build("chaos", 3, cfg, nil, nil, 0.1, os.ErrDeadlineExceeded)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	fields["schema_version"] = 4
	fields["engine"] = map[string]any{"final_cycle": 0, "pending_events": 0}
	fields["attempt"] = 2
	if data, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, Filename("chaos", 3))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != 4 || got.Status != StatusFailed || got.ConfigDigest != cfg.Digest() {
		t.Fatalf("read back %+v, want a v4 failed record", got)
	}
	ms, warnings, err := ScanDir(dir, "chaos")
	if err != nil || len(warnings) != 0 {
		t.Fatalf("scan: err %v, warnings %v", err, warnings)
	}
	if ms[3] == nil || ms[3].Status != StatusFailed {
		t.Fatalf("scanned cell 3 = %+v, want failed", ms[3])
	}
}

// TestReadsV4Manifest: a metered, journey-traced v4 manifest (a
// -fig lat -quick cell the v4 writer left) still reads and validates. ToResults returns its stored summary, the
// journey summary derived from its metrics equals the journey block it
// stored, and Validate audits those derived journeys.
func TestReadsV4Manifest(t *testing.T) {
	const path = "testdata/manifest-lat-0004.json"
	m, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.SchemaVersion != 4 || m.Sweep != "lat" || m.Index != 4 || m.Status != StatusOK {
		t.Fatalf("read %s: schema %d, cell %s/%d, status %q; want a v4 ok lat/4 record",
			path, m.SchemaVersion, m.Sweep, m.Index, m.Status)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var stored struct {
		Summary json.RawMessage `json:"summary"`
		Journey *JourneySummary `json:"journey"`
	}
	if err := json.Unmarshal(data, &stored); err != nil {
		t.Fatal(err)
	}

	res := m.ToResults()
	if res.Runtime != 42117 || res.EarlyInvs != 680 || res.CSCompleted != 128 || res.CSTime() != 1262103 {
		t.Fatalf("ToResults = %+v", res)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, stored.Summary); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("ToResults summary re-encodes as\n%s\nstored summary is\n%s", got, want.Bytes())
	}

	js := JourneyFromSnapshot(m.Metrics)
	if stored.Journey == nil || stored.Journey.Completed != 128 {
		t.Fatalf("stored journey block = %+v, want 128 journeys", stored.Journey)
	}
	if !reflect.DeepEqual(js, stored.Journey) {
		t.Fatalf("journeys from metrics = %+v, stored journey block %+v", js, stored.Journey)
	}

	for i, h := range m.Metrics.Histograms {
		if h.Name == "journey.stage.directory_cycles" {
			m.Metrics.Histograms[i].Sum += 1000
		}
	}
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "do not sum") {
		t.Fatalf("Validate with skewed directory-stage cycles = %v, want a stage-sum error", err)
	}
}

func TestManifestValidateRejects(t *testing.T) {
	cfg, sys, res := smallRun(t)
	good := Build("fig2", 0, cfg, res, sys.MetricsSnapshot(), 0, nil)

	cases := map[string]func(*Manifest){
		"schema":      func(m *Manifest) { m.SchemaVersion = 99 },
		"kind":        func(m *Manifest) { m.Kind = "bogus" },
		"kind-est":    func(m *Manifest) { m.Kind = "inpg-estimate-manifest" },
		"sweep":       func(m *Manifest) { m.Sweep = "" },
		"index":       func(m *Manifest) { m.Index = -1 },
		"mechanism":   func(m *Manifest) { m.Mechanism = "warp-drive" },
		"lock":        func(m *Manifest) { m.Lock = "chewing-gum" },
		"wall":        func(m *Manifest) { m.WallSeconds = -1 },
		"zero-run":    func(m *Manifest) { m.Error = ""; m.Summary.Runtime = 0 },
		"metrics-ord": func(m *Manifest) { m.Metrics.Values[0], m.Metrics.Values[1] = m.Metrics.Values[1], m.Metrics.Values[0] },
	}
	for name, mutate := range cases {
		m := good
		// Deep-copy the snapshot so mutations don't leak across cases.
		cp := *good.Metrics
		cp.Values = append(cp.Values[:0:0], cp.Values...)
		m.Metrics = &cp
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: invalid manifest accepted", name)
		} else if !strings.HasPrefix(err.Error(), "manifest") {
			t.Errorf("%s: error %q not prefixed", name, err)
		}
	}
}

func TestScanDirQuarantinesCorruptManifests(t *testing.T) {
	cfg, sys, res := smallRun(t)
	dir := t.TempDir()
	good := Build("fig2", 3, cfg, res, sys.MetricsSnapshot(), 0.25, nil)
	if _, err := good.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	// A half-written manifest from a killed worker: truncated JSON under
	// a matching filename.
	corrupt := filepath.Join(dir, "manifest-fig2-0004.json")
	if err := os.WriteFile(corrupt, []byte(`{"schema_version":1,"sweep":"fi`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A valid manifest whose contents record a different sweep: someone
	// else's good data under a misleading name.
	other := Build("fig4", 5, cfg, res, nil, 0.25, nil)
	otherPath, err := other.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	misnamed := filepath.Join(dir, "manifest-fig2-0005.json")
	if err := os.Rename(otherPath, misnamed); err != nil {
		t.Fatal(err)
	}

	found, warnings, err := ScanDir(dir, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[3] == nil {
		t.Fatalf("found = %v, want only index 3", found)
	}
	if len(warnings) != 2 {
		t.Fatalf("warnings = %v, want 2", warnings)
	}
	var sawQuarantine, sawIgnore bool
	for _, w := range warnings {
		if strings.Contains(w, "quarantined corrupt manifest") && strings.Contains(w, corrupt) {
			sawQuarantine = true
		}
		if strings.Contains(w, "ignoring manifest") && strings.Contains(w, `sweep "fig4"`) {
			sawIgnore = true
		}
	}
	if !sawQuarantine || !sawIgnore {
		t.Fatalf("warnings missing quarantine/ignore notices: %v", warnings)
	}
	// The corrupt file was renamed out of the way; the misnamed one —
	// valid data for another sweep — was left in place.
	if _, err := os.Stat(corrupt); !os.IsNotExist(err) {
		t.Fatalf("corrupt manifest still present: %v", err)
	}
	if _, err := os.Stat(corrupt + ".bad"); err != nil {
		t.Fatalf(".bad quarantine file missing: %v", err)
	}
	if _, err := os.Stat(misnamed); err != nil {
		t.Fatalf("other-sweep manifest should stay put: %v", err)
	}

	// A rescan is clean: the quarantined file no longer triggers
	// warnings, so resume never wedges on the same corruption twice.
	found, warnings, err = ScanDir(dir, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 {
		t.Fatalf("rescan found = %v", found)
	}
	for _, w := range warnings {
		if strings.Contains(w, "corrupt") {
			t.Fatalf("rescan re-warned about quarantined file: %v", warnings)
		}
	}
}

// TestWriteFileAtomicNoTornWrites pins the crash-safety contract of
// every artifact write: an overwrite never mixes old and new bytes, a
// crash between temp-write and rename leaves only a dot-prefixed temp
// file, and such an orphan is invisible to ScanDir — never warned about,
// never quarantined as .bad.
func TestWriteFileAtomicNoTornWrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest-fig2-0001.json")
	long := []byte(`{"a":"` + strings.Repeat("x", 4096) + `"}`)
	if err := WriteFileAtomic(path, long, 0o644); err != nil {
		t.Fatal(err)
	}
	// Overwrite with strictly shorter content: a torn (in-place,
	// truncate-then-write) implementation would leave a tail of the old
	// bytes on crash; atomic replace leaves exactly the new content.
	short := []byte(`{"b":1}`)
	if err := WriteFileAtomic(path, short, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(short) {
		t.Fatalf("overwrite left %d bytes, want %q", len(got), short)
	}
	// No temp residue after a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir entries after write = %d, want 1 (no temp residue)", len(entries))
	}

	// A crash between write and rename: an orphaned temp file with the
	// same naming scheme WriteFileAtomic uses. ScanDir must not see it.
	orphan := filepath.Join(dir, ".manifest-fig2-0002.json.tmp-12345")
	if err := os.WriteFile(orphan, []byte(`{"schema_ver`), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg, sys, res := smallRun(t)
	m := Build("fig2", 1, cfg, res, sys.MetricsSnapshot(), 0.25, nil)
	if _, err := m.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	found, warnings, err := ScanDir(dir, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[1] == nil {
		t.Fatalf("found = %v, want only index 1", found)
	}
	if len(warnings) != 0 {
		t.Fatalf("orphaned temp file triggered warnings: %v", warnings)
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Fatalf("orphaned temp file was touched: %v", err)
	}
	if _, err := os.Stat(orphan + ".bad"); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file was quarantined as .bad")
	}
}
