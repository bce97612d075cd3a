package experiments

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"inpg"
	"inpg/internal/analytic"
	"inpg/internal/fault"
	"inpg/internal/manifest"
)

// The pre-screened contention sweep: the analytic fast model
// (internal/analytic) evaluates the full contention ladder in
// microseconds, a pure selection pass picks the interesting levels —
// mechanism crossovers, serialization boundaries, the gain-curve knee,
// and the band around peak iNPG+OCOR gain — and only those levels'
// cells are dispatched to the detailed cycle simulator. Every other
// cell is covered by an estimate manifest carrying the model's answer
// and its recorded error bounds.
//
// The figure output is byte-identical between the exhaustive and
// pre-screened modes, pinned by test: selection reads only analytic
// estimates (identical either way, the model being a pure function of
// the config) and the rendering reads only the selected cells'
// simulated values. Exhaustive mode still simulates every cell — the
// extras land in run manifests but never in the figure.

// PreLadder is the full contention ladder: parallel-phase lengths from
// total lock serialization to near-zero contention, geometric so the
// knee of the gain curve cannot fall between rungs.
var PreLadder = []int{200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200, 102400, 204800, 409600}

// preLevels returns the ladder for one run: every other rung under
// Quick, which preserves the endpoints and the knee region while
// halving the grid.
func preLevels(o Options) []int {
	if !o.Quick {
		return PreLadder
	}
	var out []int
	for i := 0; i < len(PreLadder); i += 2 {
		out = append(out, PreLadder[i])
	}
	return out
}

// preConfig builds one ladder cell: the default 8×8 platform under the
// paper's default QSL lock, with a fixed synthetic critical-section
// shape (the analytic table's calibration family) so the ladder varies
// contention and nothing else.
func preConfig(pc int, mech inpg.Mechanism, o Options) inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.Mechanism = mech
	cfg.Lock = inpg.LockQSL
	cfg.Seed = o.Seed
	cfg.CSPerThread = 4
	if o.Quick {
		cfg.CSPerThread = 2
	}
	cfg.CSCycles = 100
	cfg.CSJitter = 33
	cfg.ParallelCycles = pc
	cfg.ParallelJitter = pc / 3
	cfg.AlwaysTick = o.Compat
	cfg.WatchdogWindow = o.WatchdogWindow
	cfg.Metrics = o.Metrics
	cfg.MetricsSampleEvery = o.MetricsSampleEvery
	if o.FaultRate > 0 {
		cfg.Fault = fault.AtRate(o.FaultRate, o.faultSeed())
	}
	return cfg
}

// PreSelection is the analytic screening decision for one ladder: which
// levels the detailed simulator must run and why. It is a pure function
// of the ladder's analytic estimates, so the exhaustive and pre-screened
// modes always agree on it.
type PreSelection struct {
	// Levels is the contention ladder (parallel cycles per rung).
	Levels []int
	// Selected indexes Levels, ascending: the rungs whose cells run in
	// the detailed simulator. At most len(Levels)/3 rungs are selected,
	// so pre-screening always cuts detailed cells by at least 3×.
	Selected []int
	// Score is each rung's interest score (diagnostics and manifests).
	Score []float64
	// Reasons lists each rung's qualitative selection markers.
	Reasons [][]string
}

// IsSelected reports whether rung li survives the screen.
func (s PreSelection) IsSelected(li int) bool {
	for _, i := range s.Selected {
		if i == li {
			return true
		}
	}
	return false
}

// Reason renders rung li's selection markers for the figure header.
func (s PreSelection) Reason(li int) string {
	if len(s.Reasons[li]) == 0 {
		return "ranked by analytic interest score"
	}
	return strings.Join(s.Reasons[li], "; ")
}

// PrescreenLevels scores every ladder rung from the analytic estimates
// (est[level][mechanism], mechanism-indexed like inpg.Mechanisms) and
// selects the top len(levels)/3: rungs adjacent to a change in the
// best-estimated mechanism, rungs where the lock leaves (or enters) the
// fully serialized regime, the rung at the knee of the iNPG+OCOR gain
// curve, and rungs within 5% of that curve's peak.
func PrescreenLevels(levels []int, est [][]analytic.Estimate) PreSelection {
	n := len(levels)
	sel := PreSelection{Levels: levels, Score: make([]float64, n), Reasons: make([][]string, n)}
	mark := func(i int, pts float64, why string) {
		sel.Score[i] += pts
		for _, r := range sel.Reasons[i] {
			if r == why {
				return
			}
		}
		sel.Reasons[i] = append(sel.Reasons[i], why)
	}

	// Best mechanism per rung by estimated runtime; a change between
	// adjacent rungs brackets a crossover the figure must resolve.
	best := make([]int, n)
	for i := range est {
		for m := 1; m < len(est[i]); m++ {
			if est[i][m].Runtime < est[i][best[i]].Runtime {
				best[i] = m
			}
		}
	}
	for i := 0; i+1 < n; i++ {
		if best[i] != best[i+1] {
			mark(i, 3, "mechanism crossover")
			mark(i+1, 3, "mechanism crossover")
		}
		if est[i][0].Contended != est[i+1][0].Contended {
			mark(i, 2, "serialization boundary")
			mark(i+1, 2, "serialization boundary")
		}
	}

	// iNPG+OCOR gain over Original: the band near the peak, and the
	// knee (largest curvature of the log-gain curve).
	sp := make([]float64, n)
	maxSp := 0.0
	for i := range est {
		sp[i] = mustRatio(est[i][0].Runtime, est[i][len(est[i])-1].Runtime)
		if sp[i] > maxSp {
			maxSp = sp[i]
		}
	}
	for i := range sp {
		if maxSp > 0 && sp[i] >= 0.95*maxSp {
			mark(i, 2, "within 5% of peak iNPG+OCOR gain")
		}
	}
	curv := make([]float64, n)
	maxCurv := 0.0
	for i := 1; i+1 < n; i++ {
		if sp[i-1] > 0 && sp[i] > 0 && sp[i+1] > 0 {
			curv[i] = math.Abs(math.Log(sp[i-1]) - 2*math.Log(sp[i]) + math.Log(sp[i+1]))
			if curv[i] > maxCurv {
				maxCurv = curv[i]
			}
		}
	}
	for i := range curv {
		if maxCurv == 0 {
			break
		}
		if curv[i] == maxCurv {
			mark(i, 1, "gain-curve knee")
		} else {
			// Fractional curvature breaks ties among unmarked rungs
			// without earning a qualitative reason line.
			sel.Score[i] += curv[i] / maxCurv
		}
	}

	// Keep the k most interesting rungs, index-ascending on ties so the
	// choice is deterministic, then restore ladder order for rendering.
	k := n / 3
	if k < 1 {
		k = 1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if sel.Score[order[a]] != sel.Score[order[b]] {
			return sel.Score[order[a]] > sel.Score[order[b]]
		}
		return order[a] < order[b]
	})
	sel.Selected = append(sel.Selected, order[:k]...)
	sort.Ints(sel.Selected)
	return sel
}

// PreRow is one selected rung's simulated figure values.
type PreRow struct {
	// Level is the rung's parallel-phase length in cycles.
	Level int
	// CSPerK and ROIPct are indexed like inpg.Mechanisms: critical
	// sections per kilocycle, and runtime normalized to Original (%).
	CSPerK [4]float64
	ROIPct [4]float64
}

// PreResult is the pre-screened contention sweep's output.
type PreResult struct {
	Sel  PreSelection
	Rows []PreRow
	// Missing annotates selected cells that produced no results;
	// non-selected cells cannot go missing in either mode.
	Missing []Missing
	// SimCells and TotalCells report how much detailed simulation the
	// run actually bought: equal in exhaustive mode, SimCells ≤
	// TotalCells/3 under -prescreen. Diagnostics only — never rendered,
	// so figure output stays byte-identical across modes.
	SimCells, TotalCells int
}

// RunPre executes the contention sweep. With prescreen false every cell
// runs in the detailed simulator (the reference mode); with prescreen
// true only the analytically selected levels run and every skipped cell
// is covered by an estimate manifest (when Options.ManifestDir is set).
// Both modes render the same bytes.
func RunPre(o Options, prescreen bool) (*PreResult, error) {
	levels := preLevels(o)
	nm := len(inpg.Mechanisms)
	est := make([][]analytic.Estimate, len(levels))
	var cfgs []inpg.Config
	for li, pc := range levels {
		est[li] = make([]analytic.Estimate, nm)
		for mi, mech := range inpg.Mechanisms {
			cfg := preConfig(pc, mech, o)
			est[li][mi] = analytic.For(cfg)
			cfgs = append(cfgs, cfg)
		}
	}
	sel := PrescreenLevels(levels, est)
	selSet := intSet(sel.Selected)
	var skip func(int) bool
	if prescreen {
		skip = func(i int) bool { return !selSet[i/nm] }
	}
	results, missing, err := runAllSkip(o, "pre", cfgs, skip)
	if err != nil {
		return nil, fmt.Errorf("pre: %w", err)
	}
	if prescreen && o.ManifestDir != "" {
		writeEstimates(o.ManifestDir, cfgs, est, sel, nm)
	}

	out := &PreResult{Sel: sel, SimCells: len(cfgs), TotalCells: len(cfgs)}
	if prescreen {
		out.SimCells = len(sel.Selected) * nm
	}
	for _, m := range missing {
		if selSet[m.Index/nm] {
			out.Missing = append(out.Missing, m)
		}
	}
	for _, li := range sel.Selected {
		row := PreRow{Level: levels[li]}
		base := cell(results, li*nm)
		for mi := 0; mi < nm; mi++ {
			res := cell(results, li*nm+mi)
			row.CSPerK[mi] = mustRatio(1000*float64(res.CSCompleted), float64(res.Runtime))
			row.ROIPct[mi] = 100 * mustRatio(float64(res.Runtime), float64(base.Runtime))
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// writeEstimates emits one estimate manifest per skipped cell: the
// analytic answer, why the screen passed over the cell, and the model's
// recorded validation error bounds. Write failures are reported rather
// than fatal, matching the run-manifest observer.
func writeEstimates(dir string, cfgs []inpg.Config, est [][]analytic.Estimate, sel PreSelection, nm int) {
	bounds := make(map[string]manifest.EstimateBound, len(analytic.RecordedBounds))
	for m, b := range analytic.RecordedBounds {
		bounds[string(m)] = manifest.EstimateBound{Mean: b.Mean, Max: b.Max}
	}
	for i, cfg := range cfgs {
		li := i / nm
		if sel.IsSelected(li) {
			continue
		}
		e := est[li][i%nm]
		rec := manifest.EstimateRecord{
			Runtime:         e.Runtime,
			CSPerKCycle:     e.CSPerKCycle,
			NetMeanLatency:  e.NetMeanLatency,
			LinkUtilization: e.LinkUtilization,
			CSTime:          e.CSTime(),
			Contended:       e.Contended,
			Reason:          fmt.Sprintf("analytic pre-screen: pc=%d outside the selected interest region (score %.2f)", cfg.ParallelCycles, sel.Score[li]),
			Bounds:          bounds,
		}
		m := manifest.BuildEstimate("pre", i, cfg, rec)
		if _, err := m.WriteFile(dir); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: estimate pre/%d: %v\n", i, err)
		}
	}
}

// Render prints the selection header (analytic, mode-independent) and
// the selected rungs' simulated throughput and normalized runtime.
func (r *PreResult) Render() string {
	var b strings.Builder
	header(&b, "Pre-screened contention sweep (QSL lock, four mechanisms)")
	fmt.Fprintf(&b, "analytic screen: %d of %d contention levels selected (%d of %d detailed cells)\n",
		len(r.Sel.Selected), len(r.Sel.Levels), len(r.Sel.Selected)*4, len(r.Sel.Levels)*4)
	for _, li := range r.Sel.Selected {
		fmt.Fprintf(&b, "  pc=%-7d %s\n", r.Sel.Levels[li], r.Sel.Reason(li))
	}
	fmt.Fprintf(&b, "%-8s %35s %30s\n", "parallel", "CS per kcycle", "ROI vs Original")
	fmt.Fprintf(&b, "%-8s %8s %8s %8s %8s %9s %9s %9s\n", "cycles", "Orig", "OCOR", "iNPG", "iN+OC", "OCOR", "iNPG", "iN+OC")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8d %8.3f %8.3f %8.3f %8.3f %8.1f%% %8.1f%% %8.1f%%\n",
			row.Level, row.CSPerK[0], row.CSPerK[1], row.CSPerK[2], row.CSPerK[3],
			row.ROIPct[1], row.ROIPct[2], row.ROIPct[3])
	}
	renderMissing(&b, r.Missing)
	return b.String()
}
