package runner

import (
	"errors"
	"fmt"

	"inpg/internal/coherence"
	"inpg/internal/sim"
)

// Cause classifies why a run failed, the coarse taxonomy sweeps and
// manifests report failures under.
type Cause string

// The cause classes, ordered roughly from "infrastructure" to "simulation".
const (
	// CausePanic: the run's goroutine panicked; RunError.Stack holds the
	// captured stack.
	CausePanic Cause = "panic"
	// CauseConfig: inpg.New rejected the configuration before any cycle ran.
	CauseConfig Cause = "config"
	// CauseStall: the liveness watchdog diagnosed a wedged simulation.
	CauseStall Cause = "stall"
	// CauseProtocol: a coherence controller reported an impossible message
	// sequence.
	CauseProtocol Cause = "protocol"
	// CauseTimeout: the run overran its wall-clock deadline
	// (Policy.RunTimeout or Config.WallTimeBudget).
	CauseTimeout Cause = "timeout"
	// CauseCanceled: the run never finished because its controller went
	// away (a fleet coordinator that crashed mid-campaign).
	CauseCanceled Cause = "canceled"
	// CauseBudget: the cycle budget (Config.MaxCycles) was exhausted.
	CauseBudget Cause = "cycle-budget"
	// CauseError: any other failure.
	CauseError Cause = "error"
)

// Classify maps a run failure to its Cause class: the one classification
// of a failed run, which sweeps, manifests and the fleet all report.
// Panics are classified at the recovery site (they never surface as
// plain errors), so this covers the error-shaped causes.
func Classify(err error) Cause {
	if err == nil {
		return ""
	}
	var runErr *RunError
	if errors.As(err, &runErr) {
		return runErr.Cause
	}
	// The typed engine and protocol causes, reached through
	// *inpg.SimulationError's Unwrap when System.Run returned them.
	var stall *sim.StallError
	var abort *sim.AbortError
	var budget *sim.BudgetError
	var proto *coherence.ProtocolError
	switch {
	case errors.As(err, &stall):
		return CauseStall
	case errors.As(err, &abort):
		return CauseTimeout
	case errors.As(err, &budget):
		return CauseBudget
	case errors.As(err, &proto):
		return CauseProtocol
	}
	return CauseError
}

// RunError is the typed per-run failure every runner mode reports: which
// run failed, why (cause class), under which configuration (digest), and
// — for panics — the captured stack. It wraps the underlying error for
// errors.Is/As chains (e.g. down to *inpg.SimulationError and its
// Diagnostics).
type RunError struct {
	// Index is the run's submission index within its batch.
	Index int
	// Cause is the failure class.
	Cause Cause
	// Digest fingerprints the run's configuration (inpg.Config.Digest);
	// empty when the runner mode does not know the config (plain ForEach).
	Digest string
	// Stack is the recovered goroutine stack, non-nil only for panics.
	Stack []byte
	// Err is the underlying failure. For panics it is a synthesized error
	// carrying the panic value.
	Err error
}

// Error implements error.
func (e *RunError) Error() string {
	return fmt.Sprintf("runner: run %d [%s]: %v", e.Index, e.Cause, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *RunError) Unwrap() error { return e.Err }

// asRunError coerces any per-run failure into a *RunError, classifying and
// wrapping plain errors; nil stays nil.
func asRunError(index int, err error) *RunError {
	if err == nil {
		return nil
	}
	var runErr *RunError
	if errors.As(err, &runErr) {
		return runErr
	}
	return &RunError{Index: index, Cause: Classify(err), Err: err}
}
