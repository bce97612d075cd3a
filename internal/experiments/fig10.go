package experiments

import (
	"fmt"
	"strings"

	"inpg"
	"inpg/internal/noc"
	"inpg/internal/runner"
	"inpg/internal/workload"
)

// Fig10Case is one mechanism's invalidation round-trip statistics.
type Fig10Case struct {
	Mechanism inpg.Mechanism
	MeanRTT   float64
	MaxRTT    uint64
	P50, P95  uint64
	Samples   uint64
	CoreMap   string // W×H grid of per-core mean RTT
	Histogram string
}

// Fig10Result compares Original and iNPG.
type Fig10Result struct {
	Cases []Fig10Case
	// Missing annotates mechanisms whose run failed; their rows are
	// absent from Cases.
	Missing []Missing
}

// Fig10 reproduces Figure 10: the coherence Inv–Ack round-trip delay —
// per-core means over the 8×8 grid and the delay histogram — for Original
// and iNPG, in the paper's hot-lock scenario: all 64 threads compete for a
// lock hosted at the shared L2 bank of core (5,6). Without iNPG the home
// performs every invalidation, so far cores pay long, distance-dependent
// round trips with a long-tail histogram; with iNPG the invalidations of
// threads with in-flight SWAPs happen at nearby big routers, cutting both
// the mean and the tail.
func Fig10(o Options) (*Fig10Result, error) {
	p, err := workload.ByName("freqmine")
	if err != nil {
		return nil, err
	}
	r := &Fig10Result{}
	for mi, mech := range []inpg.Mechanism{inpg.Original, inpg.INPG} {
		cfg := ConfigFor(p, mech, inpg.LockQSL, o)
		// Maximum competition: negligible parallel phase, everyone at the
		// lock; home pinned at core (5,6).
		cfg.ParallelCycles = 50
		cfg.ParallelJitter = 20
		cfg.LockHomeNode = int(noc.Mesh{Width: 8, Height: 8}.ID(5, 6))
		cfg.WallTimeBudget = o.RunTimeout
		sys, err := inpg.New(cfg)
		var res *inpg.Results
		if err == nil {
			res, err = sys.Run()
		}
		if err != nil {
			r.Missing = append(r.Missing, Missing{Sweep: "fig10", Index: mi,
				Cause: runner.Classify(err), Err: err})
			continue
		}
		rtt := sys.RTT()
		r.Cases = append(r.Cases, Fig10Case{
			Mechanism: mech,
			MeanRTT:   res.RTTMean,
			MaxRTT:    res.RTTMax,
			P50:       rtt.Hist.Percentile(0.50),
			P95:       rtt.Hist.Percentile(0.95),
			Samples:   res.RTTSamples,
			CoreMap:   rtt.CoreMap(noc.Mesh{Width: 8, Height: 8}),
			Histogram: rtt.Hist.Render(40),
		})
	}
	return r, nil
}

// Render prints per-core maps and histograms.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	header(&b, "Figure 10: coherence Inv-Ack round-trip delay (lock homed at core (5,6))")
	for _, c := range r.Cases {
		fmt.Fprintf(&b, "\n[%s] mean %.1f cycles, p50 %d, p95 %d, max %d, samples %d\n",
			c.Mechanism, c.MeanRTT, c.P50, c.P95, c.MaxRTT, c.Samples)
		b.WriteString("per-core mean RTT map:\n")
		b.WriteString(c.CoreMap)
		b.WriteString("round-trip delay histogram:\n")
		b.WriteString(c.Histogram)
	}
	renderMissing(&b, r.Missing)
	return b.String()
}
