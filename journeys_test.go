package inpg

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"inpg/internal/fault"
	"inpg/internal/journey"
)

// journeyTestConfig is a small contended run with metrics on and link
// faults injected — the adversarial setting for journey accounting:
// retransmission backoff and probe storms both active.
func journeyTestConfig(kind LockKind, mech Mechanism) Config {
	cfg := DefaultConfig()
	cfg.Lock = kind
	cfg.Mechanism = mech
	cfg.Threads = 16
	cfg.CSPerThread = 2
	cfg.CSCycles = 40
	cfg.CSJitter = 10
	cfg.ParallelCycles = 150
	cfg.ParallelJitter = 50
	cfg.Fault = fault.AtRate(0.02, 7)
	cfg.Metrics = true
	return cfg
}

// TestJourneySamplingInvisible is the journey tracer's differential
// oracle: over every lock kind × {OCOR, iNPG} × a nonzero fault rate, a
// fully sampled run (JourneyRate 1) must produce results identical to an
// unsampled one, its metric snapshot must differ only by the journey.*
// instruments, and every recorded journey's stage cycles must sum exactly
// to its end-to-end latency.
func TestJourneySamplingInvisible(t *testing.T) {
	for _, kind := range LockKinds {
		for _, mech := range []Mechanism{OCOR, INPG} {
			kind, mech := kind, mech
			t.Run(fmt.Sprintf("%v/%v", kind, mech), func(t *testing.T) {
				t.Parallel()
				base := journeyTestConfig(kind, mech)

				plain, err := New(base)
				if err != nil {
					t.Fatal(err)
				}
				resPlain, err := plain.Run()
				if err != nil {
					t.Fatal(err)
				}
				snapPlain := plain.MetricsSnapshot()
				for _, kv := range snapPlain.Values {
					if strings.HasPrefix(kv.Name, "journey.") {
						t.Fatalf("rate-0 snapshot contains %s", kv.Name)
					}
				}
				for _, h := range snapPlain.Histograms {
					if strings.HasPrefix(h.Name, "journey.") {
						t.Fatalf("rate-0 snapshot contains histogram %s", h.Name)
					}
				}

				sampled := base
				sampled.JourneyRate = 1
				traced, err := New(sampled)
				if err != nil {
					t.Fatal(err)
				}
				resTraced, err := traced.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(resPlain, resTraced) {
					t.Fatalf("sampling perturbed results:\nplain:  %+v\ntraced: %+v", resPlain, resTraced)
				}

				// The sampled snapshot must be the plain one plus
				// journey.* lines, nothing else.
				var keep []string
				for _, line := range strings.Split(traced.MetricsSnapshot().Text(), "\n") {
					if !strings.HasPrefix(line, "journey.") {
						keep = append(keep, line)
					}
				}
				if got, want := strings.Join(keep, "\n"), snapPlain.Text(); got != want {
					t.Fatalf("non-journey snapshot lines differ:\n--- rate 0 ---\n%s\n--- rate 1 (journey.* stripped) ---\n%s", want, got)
				}

				rec := traced.Journeys()
				if rec == nil || rec.Completed == 0 {
					t.Fatal("no journeys recorded at rate 1")
				}
				var acquires uint64
				for _, th := range traced.Threads() {
					acquires += uint64(th.AcquireCount)
				}
				if rec.Completed != acquires {
					t.Fatalf("journeys completed %d != acquisitions %d", rec.Completed, acquires)
				}
				for _, r := range rec.Records {
					if !r.Finished() {
						t.Fatalf("unfinished record in recorder: %+v", r)
					}
					// The acceptance bar is ≥95%; the milestone state
					// machine is exact by construction, so pin equality.
					if r.StageSum() != r.E2E() {
						t.Fatalf("thread %d acquire %d: stage sum %d != e2e %d (stages %v)",
							r.Thread, r.Acquire, r.StageSum(), r.E2E(), r.Stages)
					}
					for _, l := range r.Legs {
						if l.End < l.Start {
							t.Fatalf("negative-duration leg: %+v", l)
						}
					}
				}
			})
		}
	}
}

// TestJourneyObservesInterception checks the big-router stage: under iNPG
// with a heavily contended TAS lock, sampled journeys must see in-network
// stops (the Intercepted flag and nonzero bigrouter-stage cycles).
func TestJourneyObservesInterception(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lock = LockTAS
	cfg.Mechanism = INPG
	cfg.CSPerThread = 3
	cfg.JourneyRate = 1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped == 0 {
		t.Skip("workload produced no in-network stops")
	}
	rec := sys.Journeys()
	if rec.InterceptedCount == 0 {
		t.Fatalf("%d GetX stopped in-network but no journey observed an interception (%d journeys)",
			res.Stopped, rec.Completed)
	}
	var br uint64
	for _, r := range rec.Records {
		br += r.Stages[journey.StageBigRouter]
	}
	if br == 0 {
		t.Fatal("intercepted journeys attribute no bigrouter-stage cycles")
	}
}

// TestJourneyPartialSampling checks that a fractional rate samples a
// deterministic strict subset and leaves results untouched.
func TestJourneyPartialSampling(t *testing.T) {
	base := journeyTestConfig(LockTTL, INPG)
	base.JourneyRate = 0.3
	a, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Fatal("repeated partial-rate runs diverged")
	}
	ra, rb := a.Journeys(), b.Journeys()
	if ra.Completed != rb.Completed || len(ra.Records) != len(rb.Records) {
		t.Fatalf("sample sets differ: %d/%d vs %d/%d", ra.Completed, len(ra.Records), rb.Completed, len(rb.Records))
	}
	var acquires uint64
	for _, th := range a.Threads() {
		acquires += uint64(th.AcquireCount)
	}
	if ra.Completed == 0 || ra.Completed >= acquires {
		t.Fatalf("rate 0.3 sampled %d of %d acquisitions, want a strict nonempty subset", ra.Completed, acquires)
	}
}
