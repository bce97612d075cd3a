package experiments

import (
	"fmt"
	"strings"

	"inpg"
	"inpg/internal/workload"
)

// Ablation studies for the design choices DESIGN.md calls out beyond the
// paper's own sensitivity figures: the barrier time-to-live, the queue
// spin-lock's sleep economics (context-switch cost and spin budget) and
// the ack overlap. Each sweep varies exactly one knob on a fixed
// contended workload and reports the iNPG-relevant metrics.

// AblationRow is one knob setting's outcome.
type AblationRow struct {
	Setting   string
	Runtime   uint64
	COH       uint64
	RTTMean   float64
	EarlyInvs uint64
	Sleeps    int
}

// AblationResult is one sweep.
type AblationResult struct {
	Name string
	What string // one-line description of the knob
	Rows []AblationRow
	// Missing annotates settings whose run produced no results.
	Missing []Missing
}

// baseAblationConfig returns the contended reference point.
func baseAblationConfig(o Options) inpg.Config {
	p, _ := workload.ByName("freqmine")
	cfg := ConfigFor(p, inpg.INPG, inpg.LockQSL, o)
	cfg.ParallelCycles = 2000
	cfg.ParallelJitter = 600
	return cfg
}

func ablate(name, what string, settings []string, mk func(i int, cfg *inpg.Config)) func(Options) (*AblationResult, error) {
	return func(o Options) (*AblationResult, error) {
		out := &AblationResult{Name: name, What: what}
		cfgs := make([]inpg.Config, len(settings))
		for i := range settings {
			cfgs[i] = baseAblationConfig(o)
			mk(i, &cfgs[i])
		}
		// Each knob gets its own sweep name so manifests from different
		// ablations never collide on (sweep, index).
		results, missing, err := runAll(o, "ablation-"+name, cfgs)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", name, err)
		}
		out.Missing = missing
		for i, s := range settings {
			res := cell(results, i)
			out.Rows = append(out.Rows, AblationRow{
				Setting:   s,
				Runtime:   res.Runtime,
				COH:       res.COHTotal(),
				RTTMean:   res.RTTMean,
				EarlyInvs: res.EarlyInvs,
				Sleeps:    res.Sleeps,
			})
		}
		return out, nil
	}
}

// AblationBarrierTTL sweeps the locking-barrier time-to-live: too short
// and barriers expire before the competition burst arrives (few stops);
// too long and stale barriers stop winners pointlessly.
var AblationBarrierTTL = ablate("barrier-ttl",
	"locking barrier time-to-live in cycles (paper default 128)",
	[]string{"ttl=16", "ttl=64", "ttl=128", "ttl=512", "ttl=2048"},
	func(i int, cfg *inpg.Config) {
		cfg.BarrierTTL = []int{16, 64, 128, 512, 2048}[i]
	})

// AblationCtxSwitch sweeps the QSL sleep economics: cheap sleeps shrink
// OCOR's and iNPG's sleep-avoidance value, expensive sleeps amplify it.
var AblationCtxSwitch = ablate("ctx-switch",
	"context-switch cost around a QSL sleep, in cycles",
	[]string{"ctx=300", "ctx=1200", "ctx=2500", "ctx=5000"},
	func(i int, cfg *inpg.Config) {
		v := []int{300, 1200, 2500, 5000}[i]
		cfg.CtxSwitchCycles = v
		cfg.WakeupCycles = v / 2
	})

// AblationSpinBudget sweeps the queue spin-lock's spin budget: how many
// failed polls a thread makes before it sleeps. The poll pacing
// (lock.Config.SpinInterval, 12 cycles) stays fixed.
var AblationSpinBudget = ablate("spin-budget",
	"failed lock polls before a QSL thread sleeps (Config.QSLRetries)",
	[]string{"retries=32", "retries=128", "retries=512"},
	func(i int, cfg *inpg.Config) {
		cfg.QSLRetries = []int{32, 128, 512}[i]
	})

// AblationDeployment compares mechanism off/on at fixed everything else —
// the reference delta every other ablation row is judged against.
var AblationDeployment = ablate("mechanism",
	"Original vs iNPG vs iNPG+OCOR on the reference workload",
	[]string{"Original", "iNPG", "iNPG+OCOR"},
	func(i int, cfg *inpg.Config) {
		cfg.Mechanism = []inpg.Mechanism{inpg.Original, inpg.INPG, inpg.INPGOCOR}[i]
	})

// AblationAckOverlap isolates the ack-overlap component of iNPG: with the
// overlap disabled, an early invalidation still happens near the loser but
// its relayed ack can no longer pre-satisfy the home's direct-invalidation
// wait — quantifying how much of the round-trip saving comes from the
// overlap versus the in-network invalidation alone.
var AblationAckOverlap = ablate("ack-overlap",
	"iNPG with and without relayed acks satisfying direct waits",
	[]string{"overlap=on", "overlap=off"},
	func(i int, cfg *inpg.Config) {
		cfg.DisableAckOverlap = i == 1
	})

// Ablations runs every sweep.
func Ablations(o Options) ([]*AblationResult, error) {
	var out []*AblationResult
	for _, run := range []func(Options) (*AblationResult, error){
		AblationDeployment, AblationBarrierTTL, AblationCtxSwitch,
		AblationSpinBudget, AblationAckOverlap,
	} {
		r, err := run(o)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Render prints one ablation table.
func (a *AblationResult) Render() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Ablation %s: %s", a.Name, a.What))
	fmt.Fprintf(&b, "%-12s %10s %12s %9s %10s %7s\n",
		"setting", "runtime", "COH", "rtt", "earlyInv", "sleeps")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-12s %10d %12d %9.1f %10d %7d\n",
			r.Setting, r.Runtime, r.COH, r.RTTMean, r.EarlyInvs, r.Sleeps)
	}
	renderMissing(&b, a.Missing)
	return b.String()
}
