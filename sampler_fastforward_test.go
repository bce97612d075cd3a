package inpg_test

import (
	"reflect"
	"testing"

	"inpg"
)

// sampleCycles runs one metered simulation and returns the cycles at
// which the periodic sampler fired, plus the final cycle count.
func sampleCycles(t *testing.T, alwaysTick bool, every int) ([]uint64, uint64) {
	t.Helper()
	cfg := inpg.DefaultConfig()
	cfg.Threads = 8
	cfg.CSPerThread = 2
	cfg.ParallelCycles = 400 // long idle gaps: fast-forward engages hard
	cfg.Metrics = true
	cfg.MetricsSampleEvery = every
	cfg.AlwaysTick = alwaysTick
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := sys.MetricsSampler()
	if s == nil {
		t.Fatal("no sampler")
	}
	cycles := make([]uint64, len(s.Series))
	for i, smp := range s.Series {
		cycles[i] = smp.Cycle
	}
	return cycles, res.Runtime
}

// TestSamplerSurvivesFastForward is the regression oracle for the
// periodic metrics sampler against activity-driven scheduling: when the
// engine fast-forwards across idle gaps it must not skip past (or
// double-fire) a scheduled sample. The sampled cycles must be exactly
// the arithmetic series interval, 2·interval, … up to the final cycle —
// no drops, no duplicates — and identical between the always-tick
// reference engine and the activity-driven engine.
func TestSamplerSurvivesFastForward(t *testing.T) {
	const every = 137 // deliberately off any natural event period
	ref, refRuntime := sampleCycles(t, true, every)

	// Pin the exact schedule against the reference engine: one sample
	// per interval boundary reached before the run ended.
	if len(ref) == 0 {
		t.Fatal("reference run collected no samples")
	}
	for i, c := range ref {
		if want := uint64(every) * uint64(i+1); c != want {
			t.Fatalf("reference sample %d at cycle %d, want %d", i, c, want)
		}
	}
	if last := ref[len(ref)-1]; last > refRuntime {
		t.Fatalf("sample beyond end of run: %d > %d", last, refRuntime)
	}
	if wantN := int(refRuntime / every); len(ref) < wantN {
		t.Fatalf("samples dropped: got %d, want at least %d (runtime %d)",
			len(ref), wantN, refRuntime)
	}

	got, runtime := sampleCycles(t, false, every)
	if runtime != refRuntime {
		t.Fatalf("activity: runtime %d, want %d", runtime, refRuntime)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("activity: sample cycles diverge from always-tick reference:\n%v\nvs\n%v", got, ref)
	}
}
