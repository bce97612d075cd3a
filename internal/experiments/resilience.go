package experiments

import (
	"fmt"
	"strings"

	"inpg"
	"inpg/internal/fault"
	"inpg/internal/workload"
)

// ResilienceCase is one mechanism × fault-rate cell of the sweep.
type ResilienceCase struct {
	Mechanism inpg.Mechanism
	Rate      float64
	// CSPerKCyc is critical sections completed per thousand cycles —
	// the throughput metric the sweep compares across fault rates.
	CSPerKCyc   float64
	Runtime     uint64
	CSCompleted uint64
	Faults      uint64 // flit transmissions dropped or corrupted
	Retries     uint64 // retransmission attempts that recovered them
	Failures    uint64 // links declared dead (bounded retries exhausted)
	// Reason is empty for a completed run, otherwise the failed cell's
	// cause (runner.Classify: "stall", "timeout", ...).
	Reason string
}

// ResilienceResult is the full resilience sweep: critical-section
// throughput of every mechanism as transient link/port fault rates climb.
type ResilienceResult struct {
	Program string
	Threads int
	Rates   []float64
	// Cases is mechanism-major: for each mechanism, one case per rate.
	Cases []ResilienceCase
}

// resilienceRates returns the fault-rate ladder for the sweep.
func resilienceRates(quick bool) []float64 {
	if quick {
		return []float64{0, 0.01, 0.05}
	}
	return []float64{0, 0.005, 0.01, 0.02, 0.05}
}

// Resilience sweeps combined transient fault rates across the four
// mechanisms and reports critical-section throughput, retransmission
// effort and any structured failures. A wedged run (a link declared dead
// under an extreme rate) is a data point, not a sweep error: its cell
// records the watchdog's diagnosis. All runs execute under the default
// liveness watchdog so nothing can silently crawl to the cycle budget.
func Resilience(o Options) (*ResilienceResult, error) {
	p, err := workload.ByName("freqmine")
	if err != nil {
		return nil, err
	}
	rates := resilienceRates(o.Quick)
	r := &ResilienceResult{Program: p.ShortName, Rates: rates}

	var cfgs []inpg.Config
	var cases []ResilienceCase
	for _, mech := range inpg.Mechanisms {
		for _, rate := range rates {
			cfg := ConfigFor(p, mech, inpg.LockQSL, o)
			if rate > 0 {
				cfg.Fault = fault.AtRate(rate, o.faultSeed())
			}
			cfgs = append(cfgs, cfg)
			cases = append(cases, ResilienceCase{Mechanism: mech, Rate: rate})
		}
	}
	r.Threads = cfgs[0].MeshWidth * cfgs[0].MeshHeight

	// A failed run — a wedged simulation under an extreme rate, even a
	// panic — fills its cell's Reason instead of aborting the sweep: a
	// deterministic wedge is a data point.
	results, missing, err := runAll(o, "resilience", cfgs)
	if err != nil {
		return nil, err
	}
	for _, m := range missing {
		cases[m.Index].Reason = string(m.Cause)
	}
	for i := range cases {
		c := &cases[i]
		res := results[i]
		if res == nil {
			continue
		}
		c.Runtime = res.Runtime
		c.CSCompleted = uint64(res.CSCompleted)
		c.Faults = res.FaultsInjected
		c.Retries = res.LinkRetries
		c.Failures = res.LinkFailures
		if res.Runtime > 0 {
			c.CSPerKCyc = 1000 * float64(res.CSCompleted) / float64(res.Runtime)
		}
	}
	r.Cases = cases
	return r, nil
}

// Render prints the resilience table: one row per mechanism, one column
// per fault rate, cells showing CS/kcycle (or the failed cell's cause).
func (r *ResilienceResult) Render() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Resilience: %s CS throughput vs transient fault rate (%d threads)",
		r.Program, r.Threads))
	fmt.Fprintf(&b, "%-11s", "mechanism")
	for _, rate := range r.Rates {
		fmt.Fprintf(&b, " %11s", fmt.Sprintf("%.1f%%", 100*rate))
	}
	b.WriteString("\n")
	i := 0
	for _, mech := range inpg.Mechanisms {
		fmt.Fprintf(&b, "%-11s", mech)
		for range r.Rates {
			c := r.Cases[i]
			i++
			if c.Reason != "" {
				fmt.Fprintf(&b, " %11s", "["+c.Reason+"]")
				continue
			}
			fmt.Fprintf(&b, " %11.3f", c.CSPerKCyc)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nretransmission effort (faults injected / retries / links died):\n")
	i = 0
	for _, mech := range inpg.Mechanisms {
		fmt.Fprintf(&b, "%-11s", mech)
		for range r.Rates {
			c := r.Cases[i]
			i++
			fmt.Fprintf(&b, " %11s", fmt.Sprintf("%d/%d/%d", c.Faults, c.Retries, c.Failures))
		}
		b.WriteString("\n")
	}
	return b.String()
}
