package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"inpg/internal/cpu"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(5)
	for _, v := range []uint64{0, 3, 7, 12, 12, 97} {
		h.Add(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 97 {
		t.Fatalf("max = %d", h.Max())
	}
	wantMean := float64(0+3+7+12+12+97) / 6
	if h.Mean() != wantMean {
		t.Fatalf("mean = %f, want %f", h.Mean(), wantMean)
	}
	bins := h.Bins()
	// bins: [0,5)→2, [5,10)→1, [10,15)→2, [95,100)→1
	if len(bins) != 4 || bins[0][1] != 2 || bins[1][1] != 1 || bins[2][1] != 2 || bins[3][0] != 95 {
		t.Fatalf("bins = %v", bins)
	}
}

func TestHistogramZeroBinWidth(t *testing.T) {
	h := NewHistogram(0)
	h.Add(3)
	if h.BinWidth != 1 || h.Count() != 1 {
		t.Fatal("zero bin width must default to 1")
	}
}

// TestHistogramConservation property-checks that bin counts always sum to
// the sample count and the mean stays within [0, max].
func TestHistogramConservation(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram(7)
		for _, v := range vals {
			h.Add(uint64(v))
		}
		var sum uint64
		for _, b := range h.Bins() {
			sum += b[1]
		}
		if sum != uint64(len(vals)) {
			return false
		}
		return h.Mean() <= float64(h.Max())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(10)
	h.Add(5)
	h.Add(15)
	h.Add(15)
	out := h.Render(10)
	if !strings.Contains(out, "#") || !strings.Contains(out, "10-19") {
		t.Fatalf("render output unexpected:\n%s", out)
	}
}

func TestRTTCollector(t *testing.T) {
	c := NewRTTCollector()
	c.RecordRTT(3, 10)
	c.RecordRTT(3, 20)
	c.RecordRTT(7, 40)
	if c.Samples() != 3 {
		t.Fatalf("samples = %d", c.Samples())
	}
	if c.CoreMean(3) != 15 {
		t.Fatalf("core 3 mean = %f, want 15", c.CoreMean(3))
	}
	if c.CoreMean(99) != 0 {
		t.Fatal("unknown core must report 0")
	}
	if c.Mean() != (10+20+40)/3.0 {
		t.Fatalf("mean = %f", c.Mean())
	}
	if c.Max() != 40 {
		t.Fatalf("max = %d", c.Max())
	}
}

func TestRTTCoreMap(t *testing.T) {
	c := NewRTTCollector()
	m := noc.Mesh{Width: 2, Height: 2}
	c.RecordRTT(m.ID(1, 0), 8)
	out := c.CoreMap(m)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("map rows = %d, want 2", len(lines))
	}
	if !strings.Contains(lines[0], "8.0") {
		t.Fatalf("row 0 missing sample: %q", lines[0])
	}
}

func TestTimelineWindowBreakdown(t *testing.T) {
	tl := &Timeline{}
	// Thread 0: parallel 0-100, coh 100-150, cse 150-200, parallel 200-...
	ev := func(cyc sim.Cycle, from, to cpu.Phase) PhaseEvent {
		return PhaseEvent{Thread: 0, Cycle: cyc, From: from, To: to}
	}
	tl.Events = []PhaseEvent{
		ev(0, cpu.PhaseInit, cpu.PhaseParallel),
		ev(100, cpu.PhaseParallel, cpu.PhaseCOH),
		ev(150, cpu.PhaseCOH, cpu.PhaseCSE),
		ev(200, cpu.PhaseCSE, cpu.PhaseParallel),
	}
	par, coh, cse, cs := tl.WindowBreakdown(0, 300, 1)
	if par != 100+100 || coh != 50 || cse != 50 || cs != 1 {
		t.Fatalf("breakdown = %d %d %d cs=%d", par, coh, cse, cs)
	}
	// Clipped window.
	par, coh, cse, cs = tl.WindowBreakdown(120, 180, 1)
	if par != 0 || coh != 30 || cse != 30 || cs != 0 {
		t.Fatalf("clipped breakdown = %d %d %d cs=%d", par, coh, cse, cs)
	}
}

func TestTimelineSleepCountsAsCOH(t *testing.T) {
	tl := &Timeline{}
	tl.Events = []PhaseEvent{
		{Thread: 0, Cycle: 0, From: cpu.PhaseInit, To: cpu.PhaseCOH},
		{Thread: 0, Cycle: 10, From: cpu.PhaseCOH, To: cpu.PhaseSleep},
		{Thread: 0, Cycle: 60, From: cpu.PhaseSleep, To: cpu.PhaseCOH},
	}
	_, coh, _, _ := tl.WindowBreakdown(0, 100, 1)
	if coh != 100 {
		t.Fatalf("coh = %d, want 100 (sleep folds into COH)", coh)
	}
}

func TestTimelineMaxThreadFilter(t *testing.T) {
	tl := &Timeline{MaxThread: 2}
	hook := tl.Hook()
	eng := sim.NewEngine(1)
	for id := 0; id < 4; id++ {
		th := cpu.New(eng, id, nil, nil, cpu.Program{}, 1)
		hook(th, 5, cpu.PhaseInit, cpu.PhaseParallel)
	}
	if len(tl.Events) != 2 {
		t.Fatalf("recorded %d events, want 2 (threads 0,1)", len(tl.Events))
	}
}

// A single pathological sample — a watchdog-scale cycle count — must fold
// into the overflow bin instead of allocating v/BinWidth slots.
func TestHistogramPathologicalSampleCapped(t *testing.T) {
	h := NewHistogram(5)
	h.Add(3)
	h.Add(1 << 40) // would be ~2^37 bins uncapped
	if h.Overflow() != 1 {
		t.Fatalf("overflow = %d, want 1", h.Overflow())
	}
	if len(h.bins) > DefaultMaxBins {
		t.Fatalf("bins grew to %d despite cap %d", len(h.bins), DefaultMaxBins)
	}
	if h.Count() != 2 || h.Max() != 1<<40 || h.Sum() != 3+1<<40 {
		t.Fatalf("count/max/sum wrong: %d %d %d", h.Count(), h.Max(), h.Sum())
	}
	bins := h.Bins()
	last := bins[len(bins)-1]
	if last[0] != uint64(DefaultMaxBins)*5 || last[1] != 1 {
		t.Fatalf("overflow bin = %v, want edge %d count 1", last, DefaultMaxBins*5)
	}
	// Conservation: bin counts still sum to the sample count.
	var sum uint64
	for _, b := range bins {
		sum += b[1]
	}
	if sum != h.Count() {
		t.Fatalf("bin sum %d != count %d", sum, h.Count())
	}
	// A percentile rank landing in the overflow bin reports the true max.
	if p := h.Percentile(1.0); p != 1<<40 {
		t.Fatalf("p100 = %d, want the max", p)
	}
}

func TestHistogramExplicitMaxBins(t *testing.T) {
	h := NewHistogram(1)
	h.MaxBins = 4
	for v := uint64(0); v < 10; v++ {
		h.Add(v)
	}
	if len(h.bins) != 4 {
		t.Fatalf("bins = %d, want 4", len(h.bins))
	}
	if h.Overflow() != 6 {
		t.Fatalf("overflow = %d, want 6 (samples 4..9)", h.Overflow())
	}
}

// Percentile must use the ceiling rank: with 150 unit-bin samples, p99
// targets the ceil(0.99*150)=149th ordered sample, not the truncated
// 148th. Bin width 1 makes the expected edges exact.
func TestHistogramPercentileExactRank(t *testing.T) {
	h := NewHistogram(1)
	for v := uint64(0); v < 150; v++ {
		h.Add(v)
	}
	// ceil(0.99*150) = 149 → 149th ordered sample is value 148, in bin
	// [148,149) whose reported upper edge is 148.
	if p := h.Percentile(0.99); p != 148 {
		t.Fatalf("p99 over 150 samples = %d, want 148", p)
	}
	// ceil(0.5*150) = 75 → value 74.
	if p := h.Percentile(0.50); p != 74 {
		t.Fatalf("p50 over 150 samples = %d, want 74", p)
	}
	// A two-sample histogram: p=0.51 must already select the second sample.
	h2 := NewHistogram(1)
	h2.Add(10)
	h2.Add(20)
	if p := h2.Percentile(0.51); p != 20 {
		t.Fatalf("p51 of {10,20} = %d, want 20", p)
	}
	if p := h2.Percentile(0.50); p != 10 {
		t.Fatalf("p50 of {10,20} = %d, want 10", p)
	}
}

// A percentile never reads above the largest sample, though the bin
// holding the rank extends past it.
func TestHistogramPercentileAtMostMax(t *testing.T) {
	h := NewHistogram(16)
	h.Add(1)
	if p := h.Percentile(0.5); p != 1 {
		t.Fatalf("p50 of {1} in 16-cycle bins = %d, want 1", p)
	}
	h.Add(40)
	if p := h.Percentile(0.99); p != 40 {
		t.Fatalf("p99 of {1,40} in 16-cycle bins = %d, want 40", p)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(1)
	for v := uint64(1); v <= 100; v++ {
		h.Add(v)
	}
	if p := h.Percentile(0.50); p < 49 || p > 51 {
		t.Fatalf("p50 = %d, want ≈50", p)
	}
	if p := h.Percentile(0.95); p < 94 || p > 96 {
		t.Fatalf("p95 = %d, want ≈95", p)
	}
	if p := h.Percentile(1.0); p < 99 {
		t.Fatalf("p100 = %d, want ≥99", p)
	}
	empty := NewHistogram(5)
	if empty.Percentile(0.5) != 0 {
		t.Fatal("empty histogram percentile must be 0")
	}
}
