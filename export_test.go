package inpg

import (
	"inpg/internal/chipmodel"
	"inpg/internal/cpu"
)

// RunRecord is what a differential test compares of a finished run: its
// Results, each thread's row and the NoC energy estimate. It is exported
// for the external test package.
type RunRecord struct {
	Res     *Results
	Threads []ThreadRecord
	Energy  chipmodel.EnergyReport
}

// ThreadRecord is one thread's row of a RunRecord.
type ThreadRecord struct {
	Breakdown   cpu.PhaseBreakdown
	CSCompleted int
	SleepCount  int
}

// Record returns the RunRecord of sys, whose Run returned res.
func Record(sys *System, res *Results) RunRecord {
	r := RunRecord{Res: res, Energy: sys.Energy()}
	for _, th := range sys.Threads() {
		r.Threads = append(r.Threads, ThreadRecord{th.Breakdown, th.CSCompleted, th.SleepCount})
	}
	return r
}
