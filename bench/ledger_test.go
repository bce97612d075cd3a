package main

import (
	"testing"
)

func mv(value, lo, hi, bound float64, better string) metricValue {
	return metricValue{Value: value, Min: &lo, Max: &hi, Bound: &bound, Better: better}
}

func TestVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, cur metricValue
		want      string
	}{
		{"within bound", mv(100, 99, 101, 0.10, "lower"), mv(105, 104, 106, 0.10, "lower"), "same"},
		{"slower beyond bound", mv(100, 99, 101, 0.10, "lower"), mv(115, 114, 116, 0.10, "lower"), "worse"},
		{"faster beyond bound", mv(100, 99, 101, 0.10, "lower"), mv(80, 79, 81, 0.10, "lower"), "better"},
		{"throughput down", mv(100, 99, 101, 0.10, "higher"), mv(85, 84, 86, 0.10, "higher"), "worse"},
		{"throughput up", mv(100, 99, 101, 0.10, "higher"), mv(120, 119, 121, 0.10, "higher"), "better"},
		// The base's halves disagree by more than the bound and the new
		// range overlaps it: the run cannot tell.
		{"wide overlapping spread", mv(100, 80, 130, 0.10, "lower"), mv(120, 110, 125, 0.10, "lower"), "unresolved"},
		// Wide spread but disjoint ranges: the move is real.
		{"wide disjoint spread", mv(100, 80, 110, 0.10, "lower"), mv(150, 140, 160, 0.10, "lower"), "worse"},
		{"bit-equal witness", mv(4000, 4000, 4000, 0, "lower"), mv(4000, 4000, 4000, 0, "lower"), "same"},
		{"witness moved", mv(4000, 4000, 4000, 0, "lower"), mv(4001, 4001, 4001, 0, "lower"), "worse"},
		{"failures appear", mv(0, 0, 0, 0, "lower"), mv(0.01, 0.01, 0.01, 0, "lower"), "worse"},
		{"ungraded", mv(1, 1, 1, 0, "lower"), metricValue{Value: 2}, "info"},
	} {
		if got := verdict(tc.base, tc.cur); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestDiffLedgersMatchesWorkloadsByName(t *testing.T) {
	base := &ledger{Workloads: []workloadEntry{
		{Name: "a", Metrics: map[string]metricValue{"run_s": mv(1, 1, 1, 0.1, "lower")}},
		{Name: "gone", Metrics: map[string]metricValue{"run_s": mv(1, 1, 1, 0.1, "lower")}},
	}, Probes: map[string]metricValue{"p": {Value: 3}}}
	cur := &ledger{Workloads: []workloadEntry{
		{Name: "new", Metrics: map[string]metricValue{"run_s": mv(1, 1, 1, 0.1, "lower")}},
		{Name: "a", Metrics: map[string]metricValue{"run_s": mv(2, 2, 2, 0.1, "lower"), "extra": {Value: 1}}},
	}, Probes: map[string]metricValue{"p": {Value: 6}}}
	rows := diffLedgers(base, cur)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (a/run_s and the probe): %+v", len(rows), rows)
	}
	if r := rows[0]; r.Workload != "a" || r.Metric != "run_s" || r.Verdict != "worse" || r.DeltaPct != 100 {
		t.Errorf("row 0 = %+v", r)
	}
	if r := rows[1]; r.Workload != "probes" || r.Verdict != "info" {
		t.Errorf("row 1 = %+v", r)
	}
}
