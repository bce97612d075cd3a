package metrics

import (
	"inpg/internal/sim"
)

// Sample is one periodic reading of every scalar instrument, values in
// the registry's snapshot (sorted-name) order.
type Sample struct {
	Cycle  uint64   `json:"cycle"`
	Values []uint64 `json:"values"`
}

// Sampler reads the registry every Interval cycles into an in-memory
// time series, through the engine's ordinary event scheduler. Sampling is
// invisible to the simulation: the sampler owns no component, wakes
// nothing, consumes no randomness and notes no progress, so a sampled run
// is cycle-for-cycle identical to an unsampled one.
type Sampler struct {
	reg      *Registry
	eng      *sim.Engine
	interval sim.Cycle

	// Names lists the sampled instruments, index-aligned with every
	// Sample's Values.
	Names []string
	// Series holds the collected samples in cycle order.
	Series []Sample

	fire func()
}

// NewSampler builds a sampler reading reg every interval cycles
// (minimum 1). Call Start to begin sampling.
func NewSampler(eng *sim.Engine, reg *Registry, interval sim.Cycle) *Sampler {
	if interval < 1 {
		interval = 1
	}
	s := &Sampler{reg: reg, eng: eng, interval: interval}
	s.fire = func() {
		s.record()
		// Schedule(d) fires d+1 cycles later, so interval-1 keeps the
		// period exact.
		s.eng.Schedule(s.interval-1, s.fire)
	}
	return s
}

// Start freezes the instrument set and schedules the first sample one
// interval from now.
func (s *Sampler) Start() {
	s.Names = s.reg.Names()
	s.eng.Schedule(s.interval-1, s.fire)
}

// record appends one sample at the current cycle.
func (s *Sampler) record() {
	vals := make([]uint64, len(s.reg.entries))
	for i, e := range s.reg.entries {
		vals[i] = e.read()
	}
	s.Series = append(s.Series, Sample{Cycle: uint64(s.eng.Now()), Values: vals})
}
