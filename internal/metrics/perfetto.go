// Chrome trace-event ("Perfetto JSON") export: converts a protocol trace
// and a sampled metric series into a .trace.json that loads directly in
// ui.perfetto.dev or chrome://tracing. One simulated cycle maps to one
// microsecond of trace time, so the Perfetto timeline reads in cycles.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"inpg/internal/journey"
	"inpg/internal/trace"
)

// Process IDs in the exported trace: protocol events render one thread
// row per mesh node, lock events one row per competing thread, each
// sampled metric becomes its own counter track, and sampled lock
// journeys render one row per thread with per-leg child spans.
const (
	pidNodes    = 1
	pidThreads  = 2
	pidMetrics  = 3
	pidJourneys = 4
)

// chromeEvent is one trace-event JSON object. Field order follows the
// struct, and encoding/json sorts map keys, so output is deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace converts protocol events (oldest-first, as returned by
// trace.Buffer.Events), an optional sampled series and optional
// lock-journey records into Chrome trace-event JSON. Any input may be
// empty/nil. Each finished journey record becomes a complete ("X") span
// on the journeys process (one row per thread), with one nested child
// span per network leg; a nil or empty recorder adds nothing. Events are
// emitted in nondecreasing ts order.
func WriteChromeTrace(w io.Writer, events []trace.Event, sampler *Sampler, journeys *journey.Recorder) error {
	var out []chromeEvent

	// Lock sessions: pair each node's acquire with its following release
	// into a complete ("X") event so held sections render as spans.
	heldSince := make(map[int]uint64)
	for _, e := range events {
		switch e.Kind {
		case trace.LockAcquire:
			heldSince[int(e.Node)] = uint64(e.Cycle)
		case trace.LockRelease:
			tid := int(e.Node)
			if at, ok := heldSince[tid]; ok {
				out = append(out, chromeEvent{
					Name: "lock-held", Ph: "X", Ts: at, Dur: uint64(e.Cycle) - at,
					Pid: pidThreads, Tid: tid,
				})
				delete(heldSince, tid)
			}
		default:
			out = append(out, chromeEvent{
				Name: e.Kind.String(), Ph: "i", Ts: uint64(e.Cycle),
				Pid: pidNodes, Tid: int(e.Node), S: "t",
				Args: map[string]any{
					"src":    int(e.Src),
					"dst":    int(e.Dst),
					"addr":   fmt.Sprintf("%#x", e.Addr),
					"detail": e.Detail,
				},
			})
		}
	}
	// Unmatched acquires (still held at trace end) degrade to instants.
	for tid, at := range heldSince {
		out = append(out, chromeEvent{
			Name: "lock-acquire", Ph: "i", Ts: at,
			Pid: pidThreads, Tid: tid, S: "t",
		})
	}

	// Lock journeys: one parent span per sampled acquisition, one child
	// span per network leg. Legs are attributed inside the parent window
	// by construction (the record's cursor is monotonic), so containment
	// — which is what makes Perfetto render them nested — always holds.
	haveJourneys := false
	if journeys != nil {
		for _, r := range journeys.Records {
			if !r.Finished() {
				continue
			}
			haveJourneys = true
			stages := make(map[string]any, len(journey.Stages))
			for _, st := range journey.Stages {
				stages[st.String()] = r.Stages[st]
			}
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("journey #%d", r.Acquire),
				Ph:   "X", Ts: uint64(r.Start), Dur: uint64(r.End - r.Start),
				Pid: pidJourneys, Tid: r.Thread,
				Args: map[string]any{
					"acquire":     r.Acquire,
					"hops":        r.Hops,
					"legs":        r.LegCount,
					"intercepted": r.Intercepted,
					"stages":      stages,
				},
			})
			for _, l := range r.Legs {
				out = append(out, chromeEvent{
					Name: fmt.Sprintf("leg %d->%d", l.Src, l.Dst),
					Ph:   "X", Ts: uint64(l.Start), Dur: uint64(l.End - l.Start),
					Pid: pidJourneys, Tid: r.Thread,
					Args: map[string]any{
						"hops":        l.Hops,
						"ni_queue":    l.NIQueue,
						"vc_wait":     l.VCWait,
						"link":        l.Link,
						"bigrouter":   l.BigRouter,
						"retry":       l.Retry,
						"intercepted": l.Intercepted,
					},
				})
			}
		}
	}

	// Sampled series: one counter track per instrument.
	if sampler != nil {
		for _, s := range sampler.Series {
			for i, name := range sampler.Names {
				out = append(out, chromeEvent{
					Name: name, Ph: "C", Ts: s.Cycle,
					Pid: pidMetrics, Tid: 0,
					Args: map[string]any{"value": s.Values[i]},
				})
			}
		}
	}

	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })

	// Metadata names render the rows readably; ts 0 keeps them ahead of
	// everything after the sort above (they are prepended post-sort).
	meta := []chromeEvent{
		processName(pidNodes, "mesh nodes"),
		processName(pidThreads, "threads (lock sessions)"),
		processName(pidMetrics, "metrics"),
	}
	if haveJourneys {
		meta = append(meta, processName(pidJourneys, "lock journeys"))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{
		DisplayTimeUnit: "ms",
		TraceEvents:     append(meta, out...),
	})
}

// processName builds a process_name metadata event.
func processName(pid int, name string) chromeEvent {
	return chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
		Args: map[string]any{"name": name},
	}
}

// ValidateChromeTrace structurally checks an exported .trace.json: it must
// be valid JSON, every event must carry name/ph/pid/tid, timestamps of
// non-metadata events must be nondecreasing, durations must be
// nonnegative, and complete ("X") spans sharing a row must be properly
// nested — a span either contains or is disjoint from every other span on
// its (pid, tid), never partially overlapping. This is the checker the
// tests, CI, and inpgvalidate run against generated traces.
func ValidateChromeTrace(data []byte) error {
	var t struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &t); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if len(t.TraceEvents) == 0 {
		return fmt.Errorf("trace: no events")
	}
	lastTs := -1.0
	// open tracks, per (pid, tid) row, the end timestamps of X spans that
	// are still open at the cursor — a containment stack. Events arrive
	// sorted by ts, so a new span on a row must either start at or after
	// the innermost open span's end (disjoint: pop it) or end within it
	// (nested: push).
	type row struct{ pid, tid float64 }
	open := make(map[row][]float64)
	for i, e := range t.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				return fmt.Errorf("trace: event %d missing %q", i, key)
			}
		}
		var ph string
		if err := json.Unmarshal(e["ph"], &ph); err != nil || ph == "" {
			return fmt.Errorf("trace: event %d has invalid ph", i)
		}
		if ph == "M" {
			continue
		}
		raw, ok := e["ts"]
		if !ok {
			return fmt.Errorf("trace: event %d (%s) missing ts", i, ph)
		}
		var ts float64
		if err := json.Unmarshal(raw, &ts); err != nil {
			return fmt.Errorf("trace: event %d ts: %w", i, err)
		}
		if ts < lastTs {
			return fmt.Errorf("trace: event %d ts %v before %v", i, ts, lastTs)
		}
		lastTs = ts
		if ph != "X" {
			continue
		}
		var dur float64
		if raw, ok := e["dur"]; ok {
			if err := json.Unmarshal(raw, &dur); err != nil {
				return fmt.Errorf("trace: event %d dur: %w", i, err)
			}
			if dur < 0 {
				return fmt.Errorf("trace: event %d has negative dur %v", i, dur)
			}
		}
		var pid, tid float64
		if err := json.Unmarshal(e["pid"], &pid); err != nil {
			return fmt.Errorf("trace: event %d pid: %w", i, err)
		}
		if err := json.Unmarshal(e["tid"], &tid); err != nil {
			return fmt.Errorf("trace: event %d tid: %w", i, err)
		}
		k := row{pid, tid}
		stack := open[k]
		for len(stack) > 0 && stack[len(stack)-1] <= ts {
			stack = stack[:len(stack)-1]
		}
		if end := ts + dur; len(stack) > 0 && end > stack[len(stack)-1] {
			return fmt.Errorf("trace: event %d [%v, %v) partially overlaps an enclosing span ending at %v on pid %v tid %v",
				i, ts, end, stack[len(stack)-1], pid, tid)
		}
		open[k] = append(stack, ts+dur)
	}
	return nil
}
