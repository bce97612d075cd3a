package inpg

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"inpg/internal/coherence"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

// DefaultWatchdogWindow is the liveness watchdog window armed when
// Config.WatchdogWindow is zero: two million cycles without any progress
// event. Legitimate quiet periods (QSL context switches, long parallel
// phases) are three to four orders of magnitude shorter, while the default
// MaxCycles deadlock bound is 25× longer — so a wedged run is diagnosed
// early without ever tripping on a healthy one.
const DefaultWatchdogWindow = 2_000_000

// AbortCheckInterval is the cycle cadence of the WallTimeBudget check:
// coarse enough that a run pays one predictable comparison per cycle,
// fine enough that even millisecond deadlines trip within a few thousand
// simulated cycles.
const AbortCheckInterval = 4096

// ErrWallTimeBudget is the abort cause reported when a run exceeds its
// Config.WallTimeBudget; it surfaces wrapped in a timeout-reason
// *SimulationError.
var ErrWallTimeBudget = errors.New("inpg: wall-time budget exhausted")

// armAbort installs the engine abort check when a wall-time budget is
// configured. Called at the top of Run so the clock starts with the run
// itself. The check never touches simulation state, so a run that
// finishes in budget is byte-identical to an unbudgeted one.
func (s *System) armAbort() {
	budget := s.cfg.WallTimeBudget
	if budget <= 0 {
		return
	}
	start := time.Now()
	s.eng.SetAbortCheck(AbortCheckInterval, func() error {
		if time.Since(start) > budget {
			return ErrWallTimeBudget
		}
		return nil
	})
}

// ThreadDiag is one unfinished thread's state at the moment of failure.
type ThreadDiag struct {
	ID      int
	Phase   string    // parallel, coh, sleep, cse
	InPhase sim.Cycle // cycles spent in the current phase
	CS      int       // critical sections completed so far
}

func (d ThreadDiag) String() string {
	return fmt.Sprintf("thread %d: phase %s for %d cycles, %d CS done", d.ID, d.Phase, d.InPhase, d.CS)
}

// Diagnostics is a structured snapshot of a stuck simulation, captured when
// Run fails (liveness watchdog, cycle budget or protocol violation). It
// names what is wedged: dead or backed-up links, in-progress directory
// transactions, outstanding L1 misses and the threads blocked on them.
type Diagnostics struct {
	Cycle   sim.Cycle
	Net     noc.NetDiag
	Dirs    []coherence.DirLineDiag
	MSHRs   []coherence.MSHRDiag
	Threads []ThreadDiag // unfinished threads only
}

// String renders a human-readable dump, most-diagnostic information first.
func (d *Diagnostics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diagnostics at cycle %d: %d packets in flight\n", d.Cycle, d.Net.InFlight)
	if dead := d.Net.DeadLinks(); len(dead) > 0 {
		fmt.Fprintf(&b, "dead links (%d):\n", len(dead))
		for _, vc := range dead {
			fmt.Fprintf(&b, "  %s\n", vc)
		}
	}
	if len(d.Net.VCs) > 0 {
		fmt.Fprintf(&b, "occupied router VCs (%d):\n", len(d.Net.VCs))
		for _, vc := range d.Net.VCs {
			fmt.Fprintf(&b, "  %s\n", vc)
		}
	}
	for _, ni := range d.Net.NIs {
		fmt.Fprintf(&b, "  %s\n", ni)
	}
	if len(d.Dirs) > 0 {
		fmt.Fprintf(&b, "directory lines in progress (%d):\n", len(d.Dirs))
		for _, ln := range d.Dirs {
			fmt.Fprintf(&b, "  %s\n", ln)
		}
	}
	if len(d.MSHRs) > 0 {
		fmt.Fprintf(&b, "outstanding L1 transactions (%d):\n", len(d.MSHRs))
		for _, m := range d.MSHRs {
			fmt.Fprintf(&b, "  %s\n", m)
		}
	}
	if len(d.Threads) > 0 {
		fmt.Fprintf(&b, "unfinished threads (%d):\n", len(d.Threads))
		for _, t := range d.Threads {
			fmt.Fprintf(&b, "  %s\n", t)
		}
	}
	return b.String()
}

// SimulationError is the typed failure System.Run returns: why the run
// failed, when, and a full Diagnostics snapshot taken while the stuck state
// was still inspectable. Unwrap exposes the underlying typed cause
// (*sim.StallError, *sim.BudgetError, *sim.AbortError or
// *coherence.ProtocolError).
type SimulationError struct {
	// Reason is "watchdog", "cycle-budget", "protocol", "timeout" or
	// "error".
	Reason     string
	Cycle      sim.Cycle
	Unfinished int // threads that had not completed their program
	Threads    int
	Err        error
	Diag       *Diagnostics
}

// Error implements error, keeping the headline one line; the full dump is
// available via Diag.
func (e *SimulationError) Error() string {
	return fmt.Sprintf("inpg: %s failure at cycle %d (%d/%d threads unfinished): %v",
		e.Reason, e.Cycle, e.Unfinished, e.Threads, e.Err)
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *SimulationError) Unwrap() error { return e.Err }

// Diagnostics captures the current simulation state. It is cheap relative
// to a run and safe to call at any cycle, but is designed for the moment a
// run fails.
func (s *System) Diagnostics() *Diagnostics {
	now := s.eng.Now()
	d := &Diagnostics{Cycle: now, Net: s.fab.Net.Diagnostics(now)}
	d.Dirs, d.MSHRs = s.fab.Diagnostics(now)
	for _, th := range s.threads {
		if th.Done() {
			continue
		}
		d.Threads = append(d.Threads, ThreadDiag{
			ID:      th.ID,
			Phase:   th.Phase().String(),
			InPhase: now - th.PhaseStart(),
			CS:      th.CSCompleted,
		})
	}
	return d
}

// wrapError converts an engine failure into a *SimulationError with the
// diagnosis attached.
func (s *System) wrapError(err error) error {
	reason := "error"
	var stall *sim.StallError
	var budget *sim.BudgetError
	var proto *coherence.ProtocolError
	var abort *sim.AbortError
	switch {
	case errors.As(err, &stall):
		reason = "watchdog"
	case errors.As(err, &budget):
		reason = "cycle-budget"
	case errors.As(err, &proto):
		reason = "protocol"
	case errors.As(err, &abort):
		reason = "timeout"
	}
	unfinished := 0
	for _, th := range s.threads {
		if !th.Done() {
			unfinished++
		}
	}
	return &SimulationError{
		Reason:     reason,
		Cycle:      s.eng.Now(),
		Unfinished: unfinished,
		Threads:    len(s.threads),
		Err:        err,
		Diag:       s.Diagnostics(),
	}
}
