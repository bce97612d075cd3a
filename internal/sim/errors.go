package sim

import "fmt"

// BudgetError reports that Run exhausted its cycle budget before its
// condition held — the coarse deadlock bound that predates the liveness
// watchdog, kept as the outermost safety net.
type BudgetError struct {
	// Budget is the maxCycles Run was given; Now the cycle it gave up at.
	Budget Cycle
	Now    Cycle
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: cycle budget %d exhausted at cycle %d", e.Budget, e.Now)
}

// StallError reports a liveness watchdog trip: no component noted progress
// (NoteProgress) for a full watchdog window. The simulation is wedged —
// callers capture diagnostics while the stuck state is still inspectable.
type StallError struct {
	// Now is the cycle the watchdog tripped; LastProgress the last cycle
	// any progress was noted; Window the configured watchdog window.
	Now          Cycle
	LastProgress Cycle
	Window       Cycle
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("sim: liveness watchdog: no progress since cycle %d (window %d, now %d)",
		e.LastProgress, e.Window, e.Now)
}

// AbortError reports that Run was stopped by the cooperative-cancellation
// hook (SetAbortCheck): a wall-clock deadline elapsed. The simulation
// itself is healthy — it was told to stop — so callers can still capture
// diagnostics from the intact state. Unwrap exposes the abort cause (e.g.
// inpg.ErrWallTimeBudget).
type AbortError struct {
	// Now is the cycle the abort check fired on; Err its reported cause.
	Now Cycle
	Err error
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("sim: run aborted at cycle %d: %v", e.Now, e.Err)
}

// Unwrap exposes the abort cause for errors.Is/As.
func (e *AbortError) Unwrap() error { return e.Err }
