package inpg_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"inpg"
	"inpg/internal/metrics"
	"inpg/internal/trace"
)

// observedFile pins what fully observed runs see of their locks. Like
// goldenFile it is regenerated only by a change that moves the
// simulation on purpose: `go test -run TestObservedRuns -update .`.
const observedFile = "testdata/observed_runs.json"

// observedRun is everything the lock observers record on one run: the
// hold/handoff ledger's and the journey stages' histogram summaries, the
// protocol trace's event counts and lock transitions, and every journey
// record's stage cycles.
type observedRun struct {
	Histograms  map[string]metrics.HistSummary `json:"histograms"`
	TraceTotal  uint64                         `json:"trace_total"`
	TraceCounts map[string]int                 `json:"trace_counts"`
	LockEvents  []string                       `json:"lock_events"`
	Journeys    []string                       `json:"journeys"`
}

// observedCases are 4×4 QSL and MCS runs under iNPG+OCOR, on one lock and
// on three, with metrics, an unfiltered trace and every acquire sampled.
func observedCases() map[string]inpg.Config {
	cases := map[string]inpg.Config{}
	for _, lk := range []inpg.LockKind{inpg.LockQSL, inpg.LockMCS} {
		for _, locks := range []int{1, 3} {
			cfg := inpg.DefaultConfig()
			cfg.MeshWidth, cfg.MeshHeight = 4, 4
			cfg.Lock = lk
			cfg.Mechanism = inpg.INPGOCOR
			cfg.CSPerThread = 3
			cfg.LockCount = locks
			cfg.Metrics = true
			cfg.TraceCapacity = 1 << 16
			cfg.JourneyRate = 1
			cases[fmt.Sprintf("4x4/%s/iNPG+OCOR/locks%d", lk, locks)] = cfg
		}
	}
	return cases
}

// observe runs cfg and reads its observers.
func observe(t *testing.T, cfg inpg.Config) observedRun {
	t.Helper()
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var o observedRun
	o.Histograms = map[string]metrics.HistSummary{}
	for _, h := range sys.MetricsSnapshot().Histograms {
		if strings.HasPrefix(h.Name, "lock.") || strings.HasPrefix(h.Name, "journey.") {
			o.Histograms[h.Name] = h
		}
	}
	buf := sys.Trace()
	if buf.Total != uint64(buf.Len()) {
		t.Fatalf("trace ring evicted: %d of %d events kept", buf.Len(), buf.Total)
	}
	o.TraceTotal = buf.Total
	o.TraceCounts = map[string]int{}
	for kind, n := range trace.CountByKind(buf.Events()) {
		o.TraceCounts[kind.String()] = n
	}
	for _, e := range buf.Events() {
		if e.Kind == trace.LockAcquire || e.Kind == trace.LockRelease {
			o.LockEvents = append(o.LockEvents, fmt.Sprintf("%s %d @%d", e.Kind, e.Cycle, e.Node))
		}
	}
	for _, r := range sys.Journeys().Records {
		o.Journeys = append(o.Journeys, fmt.Sprintf("thread %d acquire %d: %d..%d stages %v",
			r.Thread, r.Acquire, r.Start, r.End, r.Stages))
	}
	return o
}

// TestObservedRuns pins the lock observers' output on fully observed
// runs: the values were recorded before the observers were merged into
// one per-lock decorator, which must fire every trace event, ledger
// sample and journey milestone at the same cycle as before.
func TestObservedRuns(t *testing.T) {
	got := map[string]observedRun{}
	for name, cfg := range observedCases() {
		got[name] = observe(t, cfg)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(observedFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(observedFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]observedRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(want) {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: recorded in %s but no longer run", name, observedFile)
		}
	}
	for _, name := range sortedKeys(got) {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no recorded values in %s", name, observedFile)
			continue
		}
		g := got[name]
		if !reflect.DeepEqual(g.Histograms, w.Histograms) {
			t.Errorf("%s: histograms\n got %+v\nwant %+v", name, g.Histograms, w.Histograms)
		}
		if g.TraceTotal != w.TraceTotal || !reflect.DeepEqual(g.TraceCounts, w.TraceCounts) {
			t.Errorf("%s: trace counts\n got %d %v\nwant %d %v", name, g.TraceTotal, g.TraceCounts, w.TraceTotal, w.TraceCounts)
		}
		firstDiff(t, name+": lock event", g.LockEvents, w.LockEvents)
		firstDiff(t, name+": journey", g.Journeys, w.Journeys)
	}
}

// firstDiff reports the first line where got and want differ.
func firstDiff(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s %d: got %q, want %q", what, i, got[i], want[i])
			return
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s count: got %d, want %d", what, len(got), len(want))
	}
}
