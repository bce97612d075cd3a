package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// traceEvent is one Chrome trace-event object: a complete span ("X", in
// microseconds from the set's start) or a process-name record ("M").
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceBuilder assembles a set's spans: one trace process per workload
// (workload → process → op → inpg.New / System.Run on row 0, sweep cells
// on rows from 1) and one for the probes (probe → batch).
type traceBuilder struct {
	origin float64
	meta   []traceEvent
	spans  []traceEvent
}

func (t *traceBuilder) process(pid int, name string) {
	t.meta = append(t.meta, traceEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name}})
}

func (t *traceBuilder) span(name string, pid, tid int, start, end float64) {
	t.spans = append(t.spans, traceEvent{Name: name, Ph: "X", Ts: start - t.origin,
		Dur: end - start, Pid: pid, Tid: tid})
}

// child adds a child process's lifetime and every span it recorded.
func (t *traceBuilder) child(pid int, label string, c child) {
	t.span(label, pid, 0, c.start, c.end)
	for _, s := range c.res.Spans {
		t.span(s.Name, pid, s.Lane, s.Start, s.End)
	}
	for _, cell := range c.res.Cells {
		t.span("cell", pid, cell.Lane, cell.Start, cell.End)
	}
}

// write stores the trace as JSON. Spans sort by start and, among equal
// starts, longest first, so an enclosing span precedes what it contains.
func (t *traceBuilder) write(path string) error {
	sort.SliceStable(t.spans, func(i, j int) bool {
		if t.spans[i].Ts != t.spans[j].Ts {
			return t.spans[i].Ts < t.spans[j].Ts
		}
		return t.spans[i].Dur > t.spans[j].Dur
	})
	data, err := json.Marshal(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     append(t.meta, t.spans...),
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// setTrace builds the Chrome trace of a set from its plans and probes.
func setTrace(origin float64, plans []*plan, probes child) *traceBuilder {
	t := &traceBuilder{origin: origin}
	for i, p := range plans {
		pid := i + 1
		t.process(pid, "workload "+p.w.name)
		all := p.all()
		if len(all) == 0 {
			continue
		}
		start, end := all[0].start, all[0].end
		for _, c := range all {
			start, end = min(start, c.start), max(end, c.end)
		}
		t.span("workload "+p.w.name, pid, 0, start, end)
		for j, c := range p.children {
			t.child(pid, fmt.Sprintf("process %d", j), c)
		}
		if p.traced != nil {
			t.child(pid, "process (traced)", *p.traced)
		}
	}
	pid := len(plans) + 1
	t.process(pid, "layer probes")
	t.child(pid, "process (probes)", probes)
	return t
}
