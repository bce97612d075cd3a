package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"inpg/internal/journey"
	"inpg/internal/sim"
	"inpg/internal/stats"
	"inpg/internal/trace"
)

func TestRegistrySnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	var b, a uint64 = 2, 1
	// Register out of order: snapshots must still come out sorted.
	r.Counter("zeta", func() uint64 { return b })
	r.Counter("alpha", func() uint64 { return a })
	r.Gauge("mid.gauge", func() uint64 { return 7 })
	h := stats.NewHistogram(1)
	h.Add(10)
	h.Add(20)
	r.Histogram("lat", h)

	s := r.Snapshot(123)
	if s.Cycle != 123 {
		t.Fatalf("cycle = %d", s.Cycle)
	}
	names := []string{"alpha", "mid.gauge", "zeta"}
	for i, kv := range s.Values {
		if kv.Name != names[i] {
			t.Fatalf("value %d = %q, want %q", i, kv.Name, names[i])
		}
	}
	if !s.Values[1].Gauge || s.Values[0].Gauge {
		t.Fatal("gauge flag misplaced")
	}
	if v, ok := s.Get("zeta"); !ok || v != 2 {
		t.Fatalf("Get(zeta) = %d,%v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) succeeded")
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 2 || s.Histograms[0].Max != 20 {
		t.Fatalf("histogram summary = %+v", s.Histograms)
	}

	// Readers are live: a counter bump shows in the next snapshot only.
	a = 42
	if v, _ := r.Snapshot(124).Get("alpha"); v != 42 {
		t.Fatalf("live reader = %d, want 42", v)
	}

	// Text is the canonical byte-comparable form.
	txt := s.Text()
	want := "cycle 123\nalpha 1\nmid.gauge 7\nzeta 2\nlat count=2 sum=30 max=20 p50=10 p99=20\n"
	if txt != want {
		t.Fatalf("Text:\n%q\nwant:\n%q", txt, want)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("x", func() uint64 { return 0 })
}

func TestRegistrySealedPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", func() uint64 { return 0 })
	r.Snapshot(0)
	defer func() {
		if recover() == nil {
			t.Fatal("post-snapshot registration did not panic")
		}
	}()
	r.Counter("y", func() uint64 { return 0 })
}

// The sampler reads the registry exactly every interval cycles through the
// engine's ordinary scheduled events.
func TestSamplerPeriod(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewRegistry()
	var ticks uint64
	r.Counter("ticks", func() uint64 { return ticks })
	s := NewSampler(eng, r, 10)
	s.Start()

	done := false
	eng.Schedule(94, func() { done = true }) // fires at cycle 95
	if _, err := eng.Run(1000, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	if len(s.Series) != 9 {
		t.Fatalf("%d samples, want 9 (cycles 10..90)", len(s.Series))
	}
	for i, sm := range s.Series {
		if want := uint64(10 * (i + 1)); sm.Cycle != want {
			t.Fatalf("sample %d at cycle %d, want %d", i, sm.Cycle, want)
		}
		if len(sm.Values) != 1 {
			t.Fatalf("sample %d has %d values", i, len(sm.Values))
		}
	}
	if len(s.Names) != 1 || s.Names[0] != "ticks" {
		t.Fatalf("names = %v", s.Names)
	}
}

// The exported Chrome trace is structurally valid and pairs lock
// acquire/release into complete ("X") span events.
func TestWriteChromeTraceStructure(t *testing.T) {
	events := []trace.Event{
		{Cycle: 5, Kind: trace.PktInject, Node: 1, Src: 1, Dst: 9, Addr: 0x80, Detail: "GETX"},
		{Cycle: 100, Kind: trace.LockAcquire, Node: 2},
		{Cycle: 150, Kind: trace.LockRelease, Node: 2},
		{Cycle: 160, Kind: trace.LinkRetry, Node: 3, Detail: "retry 1 toward East"},
		{Cycle: 200, Kind: trace.LockAcquire, Node: 4}, // unmatched: degrades to instant
	}

	eng := sim.NewEngine(1)
	r := NewRegistry()
	var v uint64
	r.Counter("c", func() uint64 { return v })
	s := NewSampler(eng, r, 50)
	s.Start()
	done := false
	eng.Schedule(119, func() { done = true })
	if _, err := eng.Run(1000, func() bool { return done }); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, s, nil); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var spans, instants, counters, metas int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Ts != 100 || e.Dur != 50 || e.Tid != 2 {
				t.Fatalf("lock span = %+v", e)
			}
		case "i":
			instants++
		case "C":
			counters++
		case "M":
			metas++
		}
	}
	if spans != 1 {
		t.Fatalf("spans = %d, want 1", spans)
	}
	// Instants: inject, link-retry, and the unmatched acquire.
	if instants != 3 {
		t.Fatalf("instants = %d, want 3", instants)
	}
	// Counter samples at cycles 50 and 100, one instrument.
	if counters != 2 {
		t.Fatalf("counter events = %d, want 2", counters)
	}
	if metas != 3 {
		t.Fatalf("metadata events = %d, want 3", metas)
	}
}

// Journey records export as nested spans on the journeys process: one
// parent per record, one child per leg, contained in time, and an empty
// recorder leaves the output byte-identical to a nil one.
func TestWriteChromeTraceJourneySpans(t *testing.T) {
	r := &journey.Record{Thread: 3, Acquire: 7}
	r.Begin(100)
	r.Issue(105)                             // 5 cycles stall
	r.FoldLeg(125, 3, 12, 4, 6, 3, 0, false) // request leg
	r.Remote(140)                            // directory service
	r.FoldLeg(160, 12, 3, 4, 2, 0, 5, false) // response leg
	r.Finish(163)
	rec := journey.NewRecorder(0)
	rec.Finish(r)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, nil, rec); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var parents, legs int
	for _, e := range out.TraceEvents {
		if e.Ph != "X" || e.Pid != pidJourneys {
			continue
		}
		if e.Tid != 3 {
			t.Fatalf("journey span on tid %d, want 3", e.Tid)
		}
		if e.Name == "journey #7" {
			parents++
			if e.Ts != 100 || e.Dur != 63 {
				t.Fatalf("parent span = %+v", e)
			}
		} else {
			legs++
			if e.Ts < 100 || e.Ts+e.Dur > 163 {
				t.Fatalf("leg span %+v escapes its journey", e)
			}
		}
	}
	if parents != 1 || legs != 2 {
		t.Fatalf("parents = %d legs = %d, want 1 and 2", parents, legs)
	}

	// empty recorder ≡ nil recorder, byte for byte.
	var plain, emptyRec bytes.Buffer
	events := []trace.Event{{Cycle: 5, Kind: trace.PktInject, Node: 1}}
	if err := WriteChromeTrace(&plain, events, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&emptyRec, events, nil, journey.NewRecorder(0)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), emptyRec.Bytes()) {
		t.Fatal("empty recorder changed trace bytes")
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	if err := ValidateChromeTrace([]byte("not json")); err == nil {
		t.Fatal("accepted invalid JSON")
	}
	if err := ValidateChromeTrace([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Fatal("accepted empty trace")
	}
	missing := []byte(`{"traceEvents":[{"name":"a","ph":"i","ts":1,"pid":1}]}`)
	if err := ValidateChromeTrace(missing); err == nil {
		t.Fatal("accepted event missing tid")
	}
	backwards := []byte(`{"traceEvents":[
		{"name":"a","ph":"i","ts":10,"pid":1,"tid":0},
		{"name":"b","ph":"i","ts":5,"pid":1,"tid":0}]}`)
	if err := ValidateChromeTrace(backwards); err == nil {
		t.Fatal("accepted nonmonotonic ts")
	}
	overlap := []byte(`{"traceEvents":[
		{"name":"a","ph":"X","ts":0,"dur":10,"pid":4,"tid":0},
		{"name":"b","ph":"X","ts":5,"dur":10,"pid":4,"tid":0}]}`)
	if err := ValidateChromeTrace(overlap); err == nil {
		t.Fatal("accepted partially overlapping spans")
	}
	negative := []byte(`{"traceEvents":[
		{"name":"a","ph":"X","ts":0,"dur":-3,"pid":4,"tid":0}]}`)
	if err := ValidateChromeTrace(negative); err == nil {
		t.Fatal("accepted negative duration")
	}
}
