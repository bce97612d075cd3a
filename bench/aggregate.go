package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef is a metric as BENCHMARK.json and the ledger state it. Bound,
// set on end-to-end metrics only, is the share of the baseline value by
// which the metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are what a user of the simulator sees: host time to set
// up and run a simulation, throughput, and host memory. README.md gives
// the spreads across seeds the bounds were chosen from.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cells_per_s", Unit: "cells/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// selfShareLayers are the layers CPU-profile samples are folded into,
// named after the repository's packages (inpg is the root package: System
// wiring and its run loop); goruntime is the Go runtime and other is
// everything else.
var selfShareLayers = []string{
	"sim", "noc", "coherence", "cache", "memory", "bigrouter", "cpu", "lock",
	"inpg", "runner", "manifest", "fleet", "goruntime", "other",
}

// probeLocks are the lock kinds the lock probe runs, as inpg names them.
var probeLocks = []string{"TAS", "TTL", "ABQL", "MCS", "QSL", "CLH"}

// perLayerMetrics are the single-layer metrics of a traced run.
var perLayerMetrics = func() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, l := range selfShareLayers {
		add(l+".self_share", "fraction", "lower")
	}
	add("noc.flits_switched", "count", "lower")
	add("noc.vc_stalls", "count", "lower")
	add("noc.host_ns_per_flit", "ns", "lower")
	add("coherence.dir_txns", "count", "lower")
	add("coherence.invs_sent", "count", "lower")
	add("coherence.l1_miss_ratio", "fraction", "lower")
	add("coherence.early_rec_use_ratio", "fraction", "higher")
	add("cache.mshr_reject_ratio", "fraction", "lower")
	add("bigrouter.getx_stopped", "count", "higher")
	add("bigrouter.early_invs", "count", "higher")
	add("bigrouter.stop_ratio", "fraction", "higher")
	add("bigrouter.table_full_ratio", "fraction", "lower")
	add("runner.idle_share", "fraction", "lower")
	add("roi_cycles", "cycles", "lower")
	add("sim.probe.event_ns", "ns", "lower")
	add("sim.probe.step_ns_per_ticker", "ns", "lower")
	add("noc.probe.ns_per_flit", "ns", "lower")
	add("coherence.probe.getx_storm_ns_per_txn", "ns", "lower")
	add("coherence.probe.gets_storm_ns_per_txn", "ns", "lower")
	add("bigrouter.probe.intercept_ns", "ns", "lower")
	for _, k := range probeLocks {
		add("lock.probe."+strings.ToLower(k)+".ns_per_cs", "ns", "lower")
		add("lock.probe."+strings.ToLower(k)+".cycles_per_cs", "cycles", "lower")
	}
	add("runner.probe.cell_overhead_us", "us", "lower")
	add("manifest.probe.write_us", "us", "lower")
	add("manifest.probe.scan_ms", "ms", "lower")
	add("fleet.probe.roundtrip_ms", "ms", "lower")
	add("fleet.probe.roundtrip_nowal_ms", "ms", "lower")
	add("trace.overhead_pct", "%", "lower")
	add("host.ref_ms", "ms", "lower")
	return out
}()

var perLayerByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range perLayerMetrics {
		m[d.Name] = d
	}
	return m
}()

// bestByKey keeps each config's fastest sample. Co-tenant load on a shared
// host only ever adds time, and on the reference host it switches single
// ops between two speeds about 1.6x apart, so the minimum over a config's
// repeats is the estimate that load disturbs least.
func bestByKey(samples []keyed) map[int]float64 {
	best := map[int]float64{}
	for _, s := range samples {
		if b, ok := best[s.Key]; !ok || s.V < b {
			best[s.Key] = s.V
		}
	}
	return best
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// meanOfMedians takes each group's median and averages them: groups are
// processes (every process weighs the same however many ops it ran) or
// configs (every config weighs the same however often it repeated).
func meanOfMedians(groups map[int][]float64) float64 {
	var meds []float64
	for _, g := range groups {
		if len(g) > 0 {
			meds = append(meds, median(g))
		}
	}
	return mean(meds)
}

// p90 returns the 90th percentile of v and how many samples lie beyond
// it. ok is false unless there are at least 100 samples, which leaves at
// least ten beyond the percentile.
func p90(v []float64) (value float64, beyond int, ok bool) {
	if len(v) < 100 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := (9*len(s)+9)/10 - 1 // ceil(0.9 n) - 1, in integers
	beyond = len(s) - 1 - i
	return s[i], beyond, beyond >= 10
}

// endToEnd computes the end-to-end metrics over the successful ops of the
// given children. A sim op is one configuration; a sweep op is the whole
// suite and its config index is always 0.
func endToEnd(children []child) map[string]float64 {
	var run, wall, setup []keyed
	cycles := map[int]float64{}
	cells := map[int]float64{}
	alloc := map[int][]float64{}
	mallocs := map[int][]float64{}
	var rss []float64
	for _, c := range children {
		for _, op := range c.res.Ops {
			if op.Err != "" {
				continue
			}
			run = append(run, keyed{Key: op.Config, V: op.RunS})
			wall = append(wall, keyed{Key: op.Config, V: op.WallS})
			cycles[op.Config] = float64(op.Cycles)
			cells[op.Config] = float64(op.Cells)
			alloc[op.Config] = append(alloc[op.Config], float64(op.AllocB))
			mallocs[op.Config] = append(mallocs[op.Config], float64(op.Mallocs))
		}
		setup = append(setup, c.res.Setups...)
		rss = append(rss, float64(c.maxRSSKB)*1024/1e6)
	}
	if len(run) == 0 {
		return nil
	}
	bestRun, bestWall := bestByKey(run), bestByKey(wall)
	var sumRun, sumWall, sumCycles, sumCells float64
	for k, r := range bestRun {
		sumRun += r
		sumWall += bestWall[k]
		sumCycles += cycles[k]
		sumCells += cells[k]
	}
	return map[string]float64{
		"setup_s":          median(values(bestByKey(setup))),
		"run_s":            sumRun / float64(len(bestRun)),
		"sim_cycles_per_s": sumCycles / sumRun,
		"cells_per_s":      sumCells / sumWall,
		"alloc_mb_per_op":  meanOfMedians(alloc) / 1e6,
		"allocs_per_op":    meanOfMedians(mallocs),
		"max_rss_mb":       median(rss),
	}
}

// runDistribution gives the ledger's informational timings: the mean over
// processes of each process's median op time, and the pooled p90 where
// the sample count allows one.
func runDistribution(children []child) (procMedian, p90v float64, n int, ok bool) {
	perProc := map[int][]float64{}
	var pooled []float64
	for i, c := range children {
		for _, op := range c.res.Ops {
			if op.Err == "" {
				perProc[i] = append(perProc[i], op.RunS)
				pooled = append(pooled, op.RunS)
			}
		}
	}
	p90v, _, ok = p90(pooled)
	return meanOfMedians(perProc), p90v, len(pooled), ok
}

// opCounts returns how many ops the children attempted and how many
// failed, counting a child that died without reporting as one failed op
// and every op whose output disagrees with the first op of the same
// config as failed.
func opCounts(children []child) (attempted, failed int, firstErr string) {
	digests := map[int]string{}
	for _, c := range children {
		if c.err != nil {
			attempted++
			failed++
			if firstErr == "" {
				firstErr = c.err.Error()
			}
			continue
		}
		for _, op := range c.res.Ops {
			attempted++
			want, seen := digests[op.Config]
			switch {
			case op.Err != "":
				failed++
				if firstErr == "" {
					firstErr = op.Err
				}
			case !seen:
				digests[op.Config] = op.Digest
			case op.Digest != want:
				failed++
				if firstErr == "" {
					firstErr = fmt.Sprintf("config %d: output differs between ops (nondeterministic)", op.Config)
				}
			}
		}
	}
	return attempted, failed, firstErr
}

// layerCounters sums the simulated layers' counters over the distinct
// configs that reported them, and returns how many configs that was.
func layerCounters(children []child) (counters, int) {
	var sum counters
	seen := map[int]bool{}
	for _, c := range children {
		for _, op := range c.res.Ops {
			if op.Err != "" || op.Counters == nil || seen[op.Config] {
				continue
			}
			seen[op.Config] = true
			sum.add(*op.Counters)
		}
	}
	return sum, len(seen)
}

// roiCycles sums the simulated ROI cycles over the distinct configs run:
// the modelled chip's result, identical for identical simulations.
func roiCycles(children []child) float64 {
	per := map[int]uint64{}
	for _, c := range children {
		for _, op := range c.res.Ops {
			if op.Err == "" {
				per[op.Config] = op.Cycles
			}
		}
	}
	sum := 0.0
	for _, v := range per {
		sum += float64(v)
	}
	return sum
}

// cellOverheads returns the median per-cell overhead in milliseconds —
// claim to done as the sweep's Observer saw it, minus the attempt's own
// wall time — and the median idle share of the sweeps' two workers.
func cellOverheads(children []child) (overheadMs, idle float64) {
	var over, idles []float64
	for _, c := range children {
		busy := map[int]float64{}
		for _, cell := range c.res.Cells {
			span := (cell.End - cell.Start) / 1e6
			over = append(over, (span-cell.WallS)*1e3)
			busy[cell.Op] += span
		}
		for i, op := range c.res.Ops {
			if op.Err == "" && op.WallS > 0 {
				idles = append(idles, 1-busy[i]/(2*op.WallS))
			}
		}
	}
	return median(over), median(idles)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
