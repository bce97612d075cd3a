// Command inpgvalidate checks generated telemetry artifacts: run
// manifests against the internal/manifest schema, and exported
// .trace.json files against the Chrome trace-event structure checker.
// CI runs it over everything a sweep produced; it exits nonzero on the
// first invalid artifact.
//
// Each argument is either a manifest-*.json file, a .trace.json file,
// or a directory scanned (non-recursively) for both; other files (such
// as the restart markers and estimate-*.json files of older releases)
// are skipped. Across everything checked, one
// cross-file property is enforced: the same sweep cell (sweep/index)
// must never appear with two different config digests — the corruption
// a fleet's idempotency-by-digest is supposed to make impossible.
//
// Example:
//
//	inpgvalidate out/manifests out/run.trace.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"inpg/internal/manifest"
	"inpg/internal/metrics"
)

// cellRecord remembers where a sweep cell's digest was first seen, for
// conflict reporting.
type cellRecord struct {
	digest string
	path   string
}

// validator accumulates cross-file state over every checked artifact.
type validator struct {
	checked, failedRuns int
	// cells maps "sweep/index" to the first digest seen for that cell.
	cells map[string]cellRecord
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: inpgvalidate <manifest-*.json|*.trace.json|dir>...")
		os.Exit(2)
	}
	v := &validator{cells: map[string]cellRecord{}}
	for _, arg := range os.Args[1:] {
		info, err := os.Stat(arg)
		fatal(err)
		if !info.IsDir() {
			v.checkFile(arg)
			continue
		}
		entries, err := os.ReadDir(arg)
		fatal(err)
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			v.checkFile(filepath.Join(arg, e.Name()))
		}
	}
	if v.checked == 0 {
		fatal(fmt.Errorf("no manifests or traces found"))
	}
	// A failed-run manifest is a valid artifact — the record of a
	// failed cell, which -resume re-runs — so it counts toward validity
	// but is reported.
	extra := ""
	if v.failedRuns > 0 {
		extra = fmt.Sprintf(" (%d record failed runs)", v.failedRuns)
	}
	fmt.Printf("inpgvalidate: %d artifacts valid%s\n", v.checked, extra)
}

// recordCell enforces the one-digest-per-cell invariant across every
// artifact checked in this invocation.
func (v *validator) recordCell(sweep string, index int, digest, path string) {
	if digest == "" {
		return
	}
	key := fmt.Sprintf("%s/%d", sweep, index)
	if prev, ok := v.cells[key]; ok && prev.digest != digest {
		fatal(fmt.Errorf("%s: cell %s digest %s conflicts with %s from %s",
			path, key, digest, prev.digest, prev.path))
	} else if !ok {
		v.cells[key] = cellRecord{digest: digest, path: path}
	}
}

// checkFile validates one artifact by name convention; unrecognized
// files are skipped.
func (v *validator) checkFile(path string) {
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "manifest-") && strings.HasSuffix(base, ".json"):
		m, err := manifest.ReadFile(path)
		fatal(err)
		v.recordCell(m.Sweep, m.Index, m.ConfigDigest, path)
		v.checked++
		if m.Status == manifest.StatusFailed {
			v.failedRuns++
			diag := ""
			if m.Diag != nil {
				diag = fmt.Sprintf(", %d/%d threads unfinished at cycle %d",
					m.Diag.Unfinished, m.Diag.Threads, m.Diag.Cycle)
			}
			fmt.Printf("ok %s (%s/%d, %s/%s) FAILED cause=%s%s\n",
				path, m.Sweep, m.Index, m.Mechanism, m.Lock, m.Cause, diag)
			return
		}
		if js := manifest.JourneyFromSnapshot(m.Metrics); js != nil {
			fmt.Printf("ok %s (%s/%d, %s/%s) journeys=%d intercepted=%d e2e_mean=%.1f\n",
				path, m.Sweep, m.Index, m.Mechanism, m.Lock,
				js.Completed, js.Intercepted, float64(js.E2E.Sum)/float64(max(js.Completed, 1)))
			return
		}
		fmt.Printf("ok %s (%s/%d, %s/%s)\n", path, m.Sweep, m.Index, m.Mechanism, m.Lock)
	case strings.HasSuffix(base, ".trace.json"):
		data, err := os.ReadFile(path)
		fatal(err)
		if err := metrics.ValidateChromeTrace(data); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		journeys, err := checkJourneySpans(data)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		v.checked++
		if journeys > 0 {
			fmt.Printf("ok %s (%d journey spans)\n", path, journeys)
			return
		}
		fmt.Printf("ok %s\n", path)
	}
}

// checkJourneySpans structurally audits the lock-journey spans of an
// exported trace (span nesting and nonnegative durations are already
// enforced by metrics.ValidateChromeTrace): every journey parent span's
// per-stage attribution must sum to its duration within one cycle of
// rounding. Returns how many journey spans were checked.
func checkJourneySpans(data []byte) (int, error) {
	var t struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  uint64 `json:"dur"`
			Args struct {
				Stages map[string]uint64 `json:"stages"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &t); err != nil {
		return 0, err
	}
	n := 0
	for _, e := range t.TraceEvents {
		if e.Ph != "X" || e.Args.Stages == nil {
			continue
		}
		n++
		var sum uint64
		for _, v := range e.Args.Stages {
			sum += v
		}
		diff := sum - e.Dur
		if sum < e.Dur {
			diff = e.Dur - sum
		}
		if diff > 1 {
			return n, fmt.Errorf("journey span %q: stage cycles sum to %d, span duration %d", e.Name, sum, e.Dur)
		}
	}
	return n, nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "inpgvalidate:", err)
		os.Exit(1)
	}
}
