// Package journey implements causal lock-journey tracing: a sampled
// critical-section acquisition carries a Record from the cycle the thread
// asks for the lock to the cycle the lock callback fires, and every cycle
// in between is attributed to exactly one typed stage — thread stall, NI
// injection queueing, per-hop VC wait, link traversal, big-router
// interception, directory service, or retransmission backoff.
//
// The accounting is exact by construction. A Record keeps a monotonic
// cursor (`mark`); every milestone fires on the engine's single event
// goroutine with a nondecreasing `now`, attributes the window
// [mark, now) to one stage, and advances the cursor. The stage cycles of
// a finished journey therefore sum to the end-to-end latency with no
// rounding and no double counting, which is what the differential tests
// and `inpgvalidate` pin.
//
// The same zero-perturbation discipline as internal/trace and
// internal/metrics applies: nothing here schedules events, consumes
// randomness, or is observable by the simulation. Sampling decisions come
// from a keyed FNV hash of (seed, thread, acquire index), so whether a
// given acquisition is sampled is a pure function of configuration — two
// runs at the same rate sample the same journeys, and a rate-0 run is
// byte-identical to one without the package wired in.
package journey

import (
	"fmt"
	"hash/fnv"

	"inpg/internal/sim"
)

// Stage identifies where a journey's cycles were spent.
type Stage int

const (
	// StageStall is requester-side time with no tagged message in flight:
	// spin backoff, queue-lock sleep, L1 hit latency, and lock-algorithm
	// logic between network legs.
	StageStall Stage = iota
	// StageNIQueue is time a tagged packet waited in the network
	// interface's injection queue before its first flit entered the mesh.
	StageNIQueue
	// StageVCWait is time a tagged packet's head flit sat buffered in a
	// router VC waiting for the output link (minus retransmission
	// backoff, which StageRetry owns).
	StageVCWait
	// StageLink is wire and serialization time: the per-leg residual
	// after queueing, VC wait, and retries are carved out of the
	// injection-to-delivery window.
	StageLink
	// StageBigRouter is big-router interception work: one cycle per leg
	// whose lock request was stopped and converted in-network.
	StageBigRouter
	// StageDirectory is remote-side service time: L2 access, pending-queue
	// wait behind earlier transactions, and ack collection at the home
	// node — the component iNPG's packet generation attacks.
	StageDirectory
	// StageRetry is accumulated link-retransmission backoff on faulty
	// links.
	StageRetry

	// NumStages counts the stages above.
	NumStages
)

var stageNames = [NumStages]string{
	"stall", "ni_queue", "vc_wait", "link", "bigrouter", "directory", "retry",
}

// String returns the stage's snake_case instrument name.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// Stages lists every stage in attribution order, for iteration.
var Stages = [NumStages]Stage{
	StageStall, StageNIQueue, StageVCWait, StageLink,
	StageBigRouter, StageDirectory, StageRetry,
}

// Leg is one network traversal of a journey: a tagged packet from
// injection to delivery. Legs become child spans in the Perfetto export.
type Leg struct {
	Start       sim.Cycle `json:"start"`
	End         sim.Cycle `json:"end"`
	Src         int       `json:"src"`
	Dst         int       `json:"dst"`
	Hops        int       `json:"hops"`
	NIQueue     uint64    `json:"niQueue"`
	VCWait      uint64    `json:"vcWait"`
	Link        uint64    `json:"link"`
	BigRouter   uint64    `json:"bigRouter"`
	Retry       uint64    `json:"retry"`
	Intercepted bool      `json:"intercepted,omitempty"`
}

// MaxLegs bounds the per-record leg list; stage totals keep accumulating
// past the cap, only the span detail is dropped.
const MaxLegs = 64

// Record is one sampled acquisition's causal journey. All mutation
// happens on the engine's event goroutine; milestones must be called with
// nondecreasing cycles.
type Record struct {
	Thread  int    `json:"thread"`
	Acquire uint64 `json:"acquire"`

	Start sim.Cycle `json:"start"`
	End   sim.Cycle `json:"end"`

	// Stages holds attributed cycles, indexed by Stage. For a finished
	// record their sum equals End-Start exactly.
	Stages [NumStages]uint64 `json:"stages"`

	// Legs holds per-traversal detail for up to MaxLegs network legs.
	Legs []Leg `json:"legs,omitempty"`

	LegCount    int  `json:"legCount"`
	Hops        int  `json:"hops"`
	Intercepted bool `json:"intercepted,omitempty"`

	mark     sim.Cycle
	finished bool
}

// Begin starts the journey at now (the cycle Acquire was called).
func (r *Record) Begin(now sim.Cycle) {
	r.Start, r.mark = now, now
}

// advance attributes [mark, now) to st and moves the cursor.
func (r *Record) advance(now sim.Cycle, st Stage) {
	if r.finished || now <= r.mark {
		return
	}
	r.Stages[st] += uint64(now - r.mark)
	r.mark = now
}

// Issue marks the cycle a tagged request left the requester's L1; the
// window since the last milestone was requester-side stall.
func (r *Record) Issue(now sim.Cycle) { r.advance(now, StageStall) }

// Remote marks the cycle a remote party (directory or owner L1) sent a
// tagged response; the window since the leg that delivered the request
// was remote service time.
func (r *Record) Remote(now sim.Cycle) { r.advance(now, StageDirectory) }

// FoldLeg folds one delivered tagged packet into the journey: the window
// from the last milestone to delivery is split into injection queueing,
// VC wait, retransmission backoff, big-router interception, and a link
// residual. The packet-measured parts are clamped in that order so the
// split can never exceed the window — the invariant that keeps stage
// sums exact even when tagged legs overlap (an eager AcksComplete racing
// a LockProbe's data reply folds only the cycles the cursor has not yet
// passed).
func (r *Record) FoldLeg(now sim.Cycle, src, dst, hops int, niq, vcwRaw, retry uint64, intercepted bool) {
	if r.finished {
		return
	}
	legStart := r.mark
	if now <= r.mark {
		return
	}
	rem := uint64(now - r.mark)
	if niq > rem {
		niq = rem
	}
	rem -= niq
	vcw := vcwRaw
	if vcw >= retry {
		vcw -= retry // retries sat in the same buffered window; don't double count
	} else {
		vcw = 0
	}
	if vcw > rem {
		vcw = rem
	}
	rem -= vcw
	if retry > rem {
		retry = rem
	}
	rem -= retry
	var br uint64
	if intercepted && rem > 0 {
		br = 1 // the big router's stop-and-convert costs the pipeline one cycle
		rem--
	}
	r.Stages[StageNIQueue] += niq
	r.Stages[StageVCWait] += vcw
	r.Stages[StageRetry] += retry
	r.Stages[StageBigRouter] += br
	r.Stages[StageLink] += rem
	r.mark = now

	r.LegCount++
	r.Hops += hops
	if intercepted {
		r.Intercepted = true
	}
	if len(r.Legs) < MaxLegs {
		r.Legs = append(r.Legs, Leg{
			Start: legStart, End: now, Src: src, Dst: dst, Hops: hops,
			NIQueue: niq, VCWait: vcw, Link: rem, BigRouter: br, Retry: retry,
			Intercepted: intercepted,
		})
	}
}

// Finish completes the journey at now (the cycle the acquire callback
// fired); the trailing window is requester-side stall. Milestones after
// Finish — a stale tagged packet still in flight — are ignored.
func (r *Record) Finish(now sim.Cycle) {
	r.advance(now, StageStall)
	r.End = now
	r.finished = true
}

// Finished reports whether Finish has run.
func (r *Record) Finished() bool { return r.finished }

// E2E returns the journey's end-to-end latency in cycles.
func (r *Record) E2E() uint64 { return uint64(r.End - r.Start) }

// StageSum returns the total attributed cycles; equals E2E for a
// finished record.
func (r *Record) StageSum() uint64 {
	var s uint64
	for _, v := range r.Stages {
		s += v
	}
	return s
}

// DefaultMaxRecords bounds a Recorder's retained journey list. Stage
// histograms (owned by the caller via OnFinish) keep aggregating past
// the cap; only span-level detail is dropped.
const DefaultMaxRecords = 4096

// Recorder collects finished journeys for one simulation.
type Recorder struct {
	// Records holds up to MaxRecords finished journeys in completion
	// order.
	Records []*Record
	// MaxRecords caps Records; <=0 means DefaultMaxRecords.
	MaxRecords int

	// Completed counts every finished journey, capped or not.
	Completed uint64
	// InterceptedCount counts finished journeys with at least one
	// big-router interception.
	InterceptedCount uint64
	// Dropped counts journeys finished after Records filled up.
	Dropped uint64

	// OnFinish, when non-nil, observes every finished record (the root
	// package feeds per-stage histograms here).
	OnFinish func(*Record)
}

// NewRecorder returns a Recorder retaining up to max records.
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultMaxRecords
	}
	return &Recorder{MaxRecords: max}
}

// Finish registers a completed journey.
func (rec *Recorder) Finish(r *Record) {
	rec.Completed++
	if r.Intercepted {
		rec.InterceptedCount++
	}
	if len(rec.Records) < rec.MaxRecords {
		rec.Records = append(rec.Records, r)
	} else {
		rec.Dropped++
	}
	if rec.OnFinish != nil {
		rec.OnFinish(r)
	}
}

// Sampled reports deterministically whether a thread's n-th acquisition
// is journey-sampled at the given rate. The decision is a keyed FNV-64a
// hash — no RNG state, no ordering dependence — so it is identical
// across engine modes and repeated runs.
func Sampled(seed int64, thread int, acquire uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "journey/%d/%d/%d", seed, thread, acquire)
	return float64(h.Sum64()%1_000_000)/1_000_000 < rate
}
