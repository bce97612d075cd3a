package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inpg/internal/metrics"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// children the smoke tests spawn re-execute it with childEnv set.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the repository root's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONDescribesThisBenchmark(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
	largest := 0.0
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		largest = max(largest, d.Bound)
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must be listed with the largest bound")
	}
}

// TestSmokeSet runs one tiny set — every workload untraced and traced,
// every probe — and checks that no op failed, that every metric was
// reported, and that the span trace is a valid Chrome trace.
func TestSmokeSet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns benchmark processes")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "results.json")
	var stdout, stderr bytes.Buffer
	o := options{seed: 3, seconds: 0.2, tiny: true, dir: dir}
	if code := runSet(o, out, &stdout, &stderr); code != 0 {
		t.Fatalf("set exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	l, err := readLedger(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Workloads) != len(workloads) {
		t.Fatalf("ledger holds %d workloads, want %d", len(l.Workloads), len(workloads))
	}
	for _, e := range l.Workloads {
		if e.Metrics["error_rate"].Value != 0 || e.Failed != 0 || e.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed (%s)", e.Name, e.Failed, e.Attempted, e.Error)
		}
		for _, d := range endToEndMetrics {
			if m, ok := e.Metrics[d.Name]; !ok || m.Value <= 0 || m.Bound == nil {
				t.Errorf("%s: end-to-end metric %s missing, unbounded or not positive: %+v", e.Name, d.Name, m)
			}
		}
		for _, d := range perLayerMetrics {
			_, inWorkload := e.Metrics[d.Name]
			_, inProbes := l.Probes[d.Name]
			if !inWorkload && !inProbes && d.Name != "host.ref_ms" {
				t.Errorf("%s: per-layer metric %s missing", e.Name, d.Name)
			}
		}
		sum := 0.0
		for _, l := range selfShareLayers {
			sum += e.Metrics[l+".self_share"].Value
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: self shares sum to %v, want 1", e.Name, sum)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "bench-trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateChromeTrace(data); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"inpg.New"`, `"System.Run"`, `"cell"`, `"batch"`, `"process (traced)"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("trace has no %s span", want)
		}
	}
}

// TestSmokeWorkload runs one workload in its single-line form, untraced
// and traced, and checks the result line against BENCHMARK.json.
func TestSmokeWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns benchmark processes")
	}
	b := readBenchmarkJSON(t)
	for trace, defs := range map[bool][]metricDef{false: b.EndToEnd, true: b.PerLayer} {
		var stdout, stderr bytes.Buffer
		w, err := workloadByName("t1-inpg")
		if err != nil {
			t.Fatal(err)
		}
		o := options{seed: 5, seconds: 0.2, tiny: true, dir: t.TempDir()}
		if code := runWorkload(o, w, trace, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %v: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res resultLine
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %v: correct %v, %d of %d failed", trace, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace %v: %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %v: metric %s missing or in the wrong unit: %+v", trace, d.Name, m)
			}
		}
	}
}
