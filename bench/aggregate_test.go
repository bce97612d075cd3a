package main

import (
	"errors"
	"math"
	"testing"
)

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: p90 must sort
		}
		return v
	}
	if _, _, ok := p90(seq(99)); ok {
		t.Fatal("99 samples leave fewer than ten beyond the 90th percentile; want no p90")
	}
	v, beyond, ok := p90(seq(100))
	if !ok || v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond (ok %v), want 90 with 10", v, beyond, ok)
	}
	v, beyond, ok = p90(seq(250))
	if !ok || v != 225 || beyond != 25 {
		t.Fatalf("p90 of 1..250 = %v with %d beyond (ok %v), want 225 with 25", v, beyond, ok)
	}
}

func TestMeanOfMediansWeighsGroupsEqually(t *testing.T) {
	// A process that ran many slow ops counts once, like one that ran two.
	groups := map[int][]float64{
		0: {1, 2, 100},
		1: {4, 6},
		2: {9, 9, 9, 9, 9, 9, 9, 9, 9},
	}
	if got, want := meanOfMedians(groups), (2.0+5.0+9.0)/3; got != want {
		t.Fatalf("mean of medians = %v, want %v", got, want)
	}
	if got := meanOfMedians(map[int][]float64{0: nil}); got != 0 {
		t.Fatalf("empty groups = %v, want 0", got)
	}
}

// ops builds a child whose ops ran the given configs with the given run
// and set-up times.
func opsChild(rssKB int64, samples ...[3]float64) child {
	c := child{maxRSSKB: rssKB}
	for _, s := range samples {
		k := int(s[0])
		c.res.Ops = append(c.res.Ops, opSample{Config: k, RunS: s[1], SetupS: s[2], WallS: s[1] + s[2],
			Cycles: uint64(1000 * (k + 1)), Cells: 1, AllocB: 2e6, Mallocs: 100, Digest: "d"})
		c.res.Setups = append(c.res.Setups, keyed{Key: k, V: s[2]})
	}
	return c
}

func TestEndToEndKeepsEachConfigsFastestOp(t *testing.T) {
	children := []child{
		opsChild(10_000, [3]float64{0, 0.6, 0.02}, [3]float64{1, 1.0, 0.03}),
		opsChild(30_000, [3]float64{0, 0.4, 0.01}, [3]float64{1, 1.6, 0.05}),
	}
	m := endToEnd(children)
	approx := func(name string, want float64) {
		t.Helper()
		if math.Abs(m[name]-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	approx("run_s", (0.4+1.0)/2)
	approx("setup_s", (0.01+0.03)/2)
	approx("sim_cycles_per_s", 3000/1.4)
	approx("cells_per_s", 2/(0.41+1.03))
	approx("alloc_mb_per_op", 2)
	approx("allocs_per_op", 100)
	approx("max_rss_mb", 20_000*1024/1e6) // the median child's peak

	failed := opsChild(0, [3]float64{0, 0.1, 0.001})
	failed.res.Ops[0].Err = "boom"
	if got := endToEnd(append(children, failed))["run_s"]; got != m["run_s"] {
		t.Errorf("a failed op changed run_s to %v", got)
	}
	if endToEnd([]child{failed}) != nil {
		t.Error("a run without a successful op must yield no metrics")
	}
}

func TestOpCountsFlagsFailuresAndNondeterminism(t *testing.T) {
	a := opsChild(0, [3]float64{0, 1, 0}, [3]float64{1, 1, 0})
	b := opsChild(0, [3]float64{0, 1, 0}, [3]float64{1, 1, 0})
	if att, failed, _ := opCounts([]child{a, b}); att != 4 || failed != 0 {
		t.Fatalf("clean run: %d attempted, %d failed; want 4, 0", att, failed)
	}
	b.res.Ops[1].Digest = "other"
	if _, failed, msg := opCounts([]child{a, b}); failed != 1 || msg == "" {
		t.Fatalf("diverging output: %d failed (%q), want 1", failed, msg)
	}
	dead := child{err: errors.New("exit status 2")}
	if att, failed, _ := opCounts([]child{a, dead}); att != 3 || failed != 1 {
		t.Fatalf("dead child: %d attempted, %d failed; want 3, 1", att, failed)
	}
}

func TestRunDistributionPoolsProcessMedians(t *testing.T) {
	var children []child
	for p := 0; p < 4; p++ {
		var samples [][3]float64
		for i := 0; i < 30; i++ {
			samples = append(samples, [3]float64{0, float64(p + 1), 0})
		}
		children = append(children, opsChild(0, samples...))
	}
	med, p90v, n, ok := runDistribution(children)
	if med != 2.5 || n != 120 || !ok || p90v != 4 {
		t.Fatalf("got median %v, p90 %v over %d (ok %v); want 2.5, 4 over 120", med, p90v, n, ok)
	}
}
