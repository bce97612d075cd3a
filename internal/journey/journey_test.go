package journey

import (
	"testing"

	"inpg/internal/sim"
)

// TestRecordSumExact pins the core invariant: a finished record's stage
// cycles sum to its end-to-end latency exactly, milestone by milestone.
func TestRecordSumExact(t *testing.T) {
	r := &Record{Thread: 3, Acquire: 7}
	r.Begin(100)
	r.Issue(105)                            // 5 stall
	r.FoldLeg(125, 0, 9, 4, 3, 8, 2, false) // 20-cycle leg: 3 niq, 6 vcw, 2 retry, 9 link
	r.Remote(140)                           // 15 directory
	r.FoldLeg(160, 9, 0, 4, 2, 5, 0, true)  // 20-cycle leg, intercepted
	r.Finish(163)                           // 3 stall
	if !r.Finished() {
		t.Fatal("record not finished")
	}
	if got, want := r.E2E(), uint64(63); got != want {
		t.Fatalf("E2E = %d, want %d", got, want)
	}
	if r.StageSum() != r.E2E() {
		t.Fatalf("stage sum %d != e2e %d (stages %v)", r.StageSum(), r.E2E(), r.Stages)
	}
	if r.Stages[StageStall] != 8 {
		t.Errorf("stall = %d, want 8", r.Stages[StageStall])
	}
	if r.Stages[StageBigRouter] != 1 {
		t.Errorf("bigrouter = %d, want 1", r.Stages[StageBigRouter])
	}
	if !r.Intercepted || r.LegCount != 2 || r.Hops != 8 {
		t.Errorf("legs=%d hops=%d intercepted=%v", r.LegCount, r.Hops, r.Intercepted)
	}
	if len(r.Legs) != 2 {
		t.Fatalf("len(Legs) = %d, want 2", len(r.Legs))
	}
	for _, l := range r.Legs {
		legSum := l.NIQueue + l.VCWait + l.Link + l.BigRouter + l.Retry
		if legSum != uint64(l.End-l.Start) {
			t.Errorf("leg [%d,%d] parts sum %d != window %d", l.Start, l.End, legSum, l.End-l.Start)
		}
	}
}

// TestRecordOverlappingLegs checks the clamp: when two tagged packets'
// windows overlap (eager ack racing a data reply), folding the second
// only attributes cycles past the cursor, and the sum stays exact.
func TestRecordOverlappingLegs(t *testing.T) {
	r := &Record{}
	r.Begin(0)
	r.Issue(2)
	// First leg delivered at 50 with inflated measured parts.
	r.FoldLeg(50, 1, 2, 3, 100, 100, 100, false)
	// Second leg delivered at 53 — only 3 cycles of window remain even
	// though the packet measured 40 cycles of queueing.
	r.FoldLeg(53, 1, 2, 3, 40, 0, 0, false)
	r.Finish(60)
	if r.StageSum() != r.E2E() {
		t.Fatalf("stage sum %d != e2e %d (stages %v)", r.StageSum(), r.E2E(), r.Stages)
	}
}

// TestRecordLateMilestones checks that milestones after Finish — stale
// packets still in flight when the lock callback fires — are ignored.
func TestRecordLateMilestones(t *testing.T) {
	r := &Record{}
	r.Begin(10)
	r.Finish(20)
	r.FoldLeg(30, 0, 1, 1, 1, 1, 0, false)
	r.Remote(35)
	r.Issue(40)
	if r.E2E() != 10 || r.StageSum() != 10 {
		t.Fatalf("late milestones perturbed record: e2e=%d sum=%d", r.E2E(), r.StageSum())
	}
	if r.LegCount != 0 {
		t.Fatalf("late leg counted: %d", r.LegCount)
	}
}

// TestRecorderBounds checks the retention cap and counters.
func TestRecorderBounds(t *testing.T) {
	rec := NewRecorder(2)
	var seen int
	rec.OnFinish = func(*Record) { seen++ }
	for i := 0; i < 5; i++ {
		r := &Record{Thread: i}
		r.Begin(0)
		if i%2 == 0 {
			r.Intercepted = true
		}
		r.Finish(sim.Cycle(i + 1))
		rec.Finish(r)
	}
	if rec.Completed != 5 || rec.Dropped != 3 || len(rec.Records) != 2 {
		t.Fatalf("completed=%d dropped=%d kept=%d", rec.Completed, rec.Dropped, len(rec.Records))
	}
	if rec.InterceptedCount != 3 {
		t.Fatalf("intercepted = %d, want 3", rec.InterceptedCount)
	}
	if seen != 5 {
		t.Fatalf("OnFinish saw %d, want 5", seen)
	}
}

// TestSampledDeterministic pins the sampling function: pure in its
// inputs, 0 and 1 exact, intermediate rates monotone in acceptance.
func TestSampledDeterministic(t *testing.T) {
	for i := 0; i < 100; i++ {
		if Sampled(42, i, uint64(i), 0) {
			t.Fatal("rate 0 sampled")
		}
		if !Sampled(42, i, uint64(i), 1) {
			t.Fatal("rate 1 not sampled")
		}
		if Sampled(42, i, uint64(i), 0.25) != Sampled(42, i, uint64(i), 0.25) {
			t.Fatal("sampling not deterministic")
		}
		// Acceptance at a low rate implies acceptance at a higher one.
		if Sampled(42, i, uint64(i), 0.1) && !Sampled(42, i, uint64(i), 0.9) {
			t.Fatal("sampling not monotone in rate")
		}
	}
	// Different seeds must change the sampled set somewhere.
	diff := false
	for i := 0; i < 1000 && !diff; i++ {
		diff = Sampled(1, 0, uint64(i), 0.5) != Sampled(2, 0, uint64(i), 0.5)
	}
	if !diff {
		t.Fatal("seed does not key the sample set")
	}
}
