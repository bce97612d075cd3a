// Package stats provides the measurement instruments of the evaluation:
// histograms, per-core invalidation round-trip samplers (Figure 10), and
// per-thread phase timelines (Figure 9).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"inpg/internal/cpu"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

// DefaultMaxBins bounds a histogram's bin array. One pathological sample —
// a watchdog-scale cycle count landing in an RTT histogram — must not
// allocate v/BinWidth slots; anything at or past the cap is folded into a
// single overflow bin instead.
const DefaultMaxBins = 1 << 12

// Histogram is a fixed-bin-width histogram of cycle counts.
type Histogram struct {
	BinWidth uint64
	// MaxBins caps len(bins); samples at or beyond MaxBins*BinWidth land
	// in the overflow bin. 0 selects DefaultMaxBins.
	MaxBins  int
	bins     []uint64
	overflow uint64 // samples >= MaxBins*BinWidth
	count    uint64
	sum      uint64
	max      uint64
}

// NewHistogram builds a histogram with the given bin width.
func NewHistogram(binWidth uint64) *Histogram {
	if binWidth == 0 {
		binWidth = 1
	}
	return &Histogram{BinWidth: binWidth}
}

// maxBins resolves the bin cap.
func (h *Histogram) maxBins() int {
	if h.MaxBins > 0 {
		return h.MaxBins
	}
	return DefaultMaxBins
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	b := int(v / h.BinWidth)
	if cap := h.maxBins(); b >= cap {
		h.overflow++
		return
	}
	for len(h.bins) <= b {
		h.bins = append(h.bins, 0)
	}
	h.bins[b]++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Overflow returns the number of samples folded into the overflow bin.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest sample.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns the smallest bin upper edge below which at least
// fraction p (0 < p ≤ 1) of the samples fall, or Max when that is
// smaller: no sample lies above it. With no samples it returns 0.
//
// The rank is the ceiling of p*count: p=0.99 over 150 samples targets the
// 149th ordered sample, not the 148th a truncating conversion would pick.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	target := uint64(math.Ceil(p * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.bins {
		cum += c
		if cum >= target {
			return min(uint64(i+1)*h.BinWidth-1, h.max)
		}
	}
	// The rank lands in the overflow bin (or numeric slack left the
	// cumulative count short): the best bound we hold is the true maximum.
	return h.max
}

// Bins returns (low-edge, count) pairs for non-empty bins in order,
// with any overflow samples reported as one final bin at the cap edge.
func (h *Histogram) Bins() [][2]uint64 {
	var out [][2]uint64
	for i, c := range h.bins {
		if c > 0 {
			out = append(out, [2]uint64{uint64(i) * h.BinWidth, c})
		}
	}
	if h.overflow > 0 {
		out = append(out, [2]uint64{uint64(h.maxBins()) * h.BinWidth, h.overflow})
	}
	return out
}

// Render draws a paper-style ASCII histogram.
func (h *Histogram) Render(width int) string {
	var sb strings.Builder
	var peak uint64
	for _, b := range h.Bins() {
		if b[1] > peak {
			peak = b[1]
		}
	}
	for _, b := range h.Bins() {
		n := int(b[1] * uint64(width) / peak)
		fmt.Fprintf(&sb, "%6d-%-6d |%s %d\n", b[0], b[0]+h.BinWidth-1, strings.Repeat("#", n), b[1])
	}
	return sb.String()
}

// RTTCollector aggregates invalidation–acknowledgement round trips per
// issuing core and overall; it implements coherence.RTTRecorder for both
// directories and big routers.
type RTTCollector struct {
	perCore map[noc.NodeID]*meanAgg
	Hist    *Histogram
}

type meanAgg struct {
	sum   uint64
	count uint64
}

// NewRTTCollector builds a collector with 5-cycle histogram bins.
func NewRTTCollector() *RTTCollector {
	return &RTTCollector{perCore: make(map[noc.NodeID]*meanAgg), Hist: NewHistogram(5)}
}

// RecordRTT implements coherence.RTTRecorder.
func (c *RTTCollector) RecordRTT(core noc.NodeID, rtt sim.Cycle) {
	a := c.perCore[core]
	if a == nil {
		a = &meanAgg{}
		c.perCore[core] = a
	}
	a.sum += uint64(rtt)
	a.count++
	c.Hist.Add(uint64(rtt))
}

// Mean returns the overall mean round trip.
func (c *RTTCollector) Mean() float64 { return c.Hist.Mean() }

// Max returns the largest observed round trip.
func (c *RTTCollector) Max() uint64 { return c.Hist.Max() }

// Samples returns the number of round trips recorded.
func (c *RTTCollector) Samples() uint64 { return c.Hist.Count() }

// CoreMean returns the mean round trip for one core (0 if none).
func (c *RTTCollector) CoreMean(core noc.NodeID) float64 {
	a := c.perCore[core]
	if a == nil || a.count == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.count)
}

// CoreMap renders the per-core mean RTT as a W×H grid (Figure 10a/10c).
func (c *RTTCollector) CoreMap(m noc.Mesh) string {
	var sb strings.Builder
	for y := 0; y < m.Height; y++ {
		for x := 0; x < m.Width; x++ {
			fmt.Fprintf(&sb, "%6.1f", c.CoreMean(m.ID(x, y)))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// PhaseEvent is one thread phase transition.
type PhaseEvent struct {
	Thread int
	Cycle  sim.Cycle
	From   cpu.Phase
	To     cpu.Phase
}

// Timeline records phase transitions for a set of threads (Figure 9).
type Timeline struct {
	Events []PhaseEvent
	// MaxThread limits recording to threads with ID < MaxThread (the
	// paper profiles the first 8); 0 records all.
	MaxThread int
}

// Hook returns a cpu.Thread PhaseHook feeding this timeline.
func (tl *Timeline) Hook() func(t *cpu.Thread, now sim.Cycle, from, to cpu.Phase) {
	return func(t *cpu.Thread, now sim.Cycle, from, to cpu.Phase) {
		if tl.MaxThread > 0 && t.ID >= tl.MaxThread {
			return
		}
		tl.Events = append(tl.Events, PhaseEvent{Thread: t.ID, Cycle: now, From: from, To: to})
	}
}

// WindowBreakdown sums per-phase cycles inside [start, end) across the
// recorded threads and counts critical sections completed in the window
// (CSE→ phase exits).
func (tl *Timeline) WindowBreakdown(start, end sim.Cycle, threads int) (parallel, coh, cse uint64, csDone int) {
	// Reconstruct per-thread phase intervals from events.
	perThread := make(map[int][]PhaseEvent)
	for _, e := range tl.Events {
		perThread[e.Thread] = append(perThread[e.Thread], e)
	}
	for id := 0; id < threads; id++ {
		evs := perThread[id]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Cycle < evs[j].Cycle })
		cur := cpu.PhaseInit
		curStart := sim.Cycle(0)
		account := func(p cpu.Phase, a, b sim.Cycle) {
			lo, hi := a, b
			if lo < start {
				lo = start
			}
			if hi > end {
				hi = end
			}
			if hi <= lo {
				return
			}
			d := uint64(hi - lo)
			switch p {
			case cpu.PhaseParallel:
				parallel += d
			case cpu.PhaseCOH, cpu.PhaseSleep:
				coh += d
			case cpu.PhaseCSE:
				cse += d
			}
		}
		for _, e := range evs {
			account(cur, curStart, e.Cycle)
			if e.From == cpu.PhaseCSE && e.Cycle >= start && e.Cycle < end {
				csDone++
			}
			cur = e.To
			curStart = e.Cycle
		}
		account(cur, curStart, end)
	}
	return parallel, coh, cse, csDone
}

// PhaseAt replays the event list to find a thread's phase at a cycle.
func (tl *Timeline) PhaseAt(thread int, at sim.Cycle) cpu.Phase {
	cur := cpu.PhaseInit
	for _, e := range tl.Events {
		if e.Thread != thread {
			continue
		}
		if e.Cycle > at {
			break
		}
		cur = e.To
	}
	return cur
}

// phaseGlyph maps a phase to its strip-chart character.
func phaseGlyph(p cpu.Phase) byte {
	switch p {
	case cpu.PhaseParallel:
		return '.'
	case cpu.PhaseCOH:
		return 'c'
	case cpu.PhaseSleep:
		return 'z'
	case cpu.PhaseCSE:
		return '#'
	case cpu.PhaseDone:
		return ' '
	}
	return '?'
}

// StripChart renders threads' phases over [start, end) as one text row per
// thread, width columns wide — the visual form of the paper's Figure 9
// ('.' parallel, 'c' competition, 'z' sleep, '#' critical section).
func (tl *Timeline) StripChart(start, end sim.Cycle, threads, width int) string {
	if width <= 0 || end <= start {
		return ""
	}
	perCol := (end - start) / sim.Cycle(width)
	if perCol == 0 {
		perCol = 1
	}
	var sb strings.Builder
	for id := 0; id < threads; id++ {
		fmt.Fprintf(&sb, "t%-3d |", id)
		for col := 0; col < width; col++ {
			sb.WriteByte(phaseGlyph(tl.PhaseAt(id, start+sim.Cycle(col)*perCol)))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
