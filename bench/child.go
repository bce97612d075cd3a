package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"syscall"
	"time"

	"inpg"
	"inpg/internal/experiments"
)

// childEnv carries a child's spec. The benchmark re-executes its own binary
// with this variable set, and main (or TestMain under go test) hands the
// process over to childMain.
const childEnv = "INPG_BENCH_CHILD"

// childSpec is one child process's assignment.
type childSpec struct {
	Workload string `json:"workload,omitempty"`
	Seed     int64  `json:"seed"`
	// FirstOp is the position of this child's first op in the run's
	// config rotation, so consecutive children continue where the
	// previous one stopped.
	FirstOp int `json:"first_op"`
	// Budget is the measured seconds this child may spend; it always
	// completes at least one op.
	Budget float64 `json:"budget_s"`
	Tiny   bool    `json:"tiny,omitempty"`
	// Profile, when set, is the CPU profile file of a traced child.
	Profile string `json:"profile,omitempty"`
	// Probes runs the layer probes instead of a workload.
	Probes bool   `json:"probes,omitempty"`
	Dir    string `json:"dir"`
}

// keyed is one sample of a per-config quantity.
type keyed struct {
	Key int     `json:"k"`
	V   float64 `json:"v"`
}

// childResult is what a child reports on its standard output.
type childResult struct {
	Ops    []opSample         `json:"ops"`
	Setups []keyed            `json:"setups"`
	Cells  []cellSample       `json:"cells,omitempty"`
	Probes map[string]float64 `json:"probes,omitempty"`
	Spans  []span             `json:"spans"`
}

// span is one timed interval of the benchmark's own calls, in Unix
// microseconds. Lane 0 holds the process → op → layer-call chain; sweep
// cells run concurrently and take lanes from 1.
type span struct {
	Name  string  `json:"name"`
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
	Lane  int     `json:"lane"`
}

// recorder keeps a process's spans in memory until it reports.
type recorder struct{ spans []span }

type openSpan struct {
	r  *recorder
	i  int
	t0 time.Time
}

func nowMicros() float64 { return float64(time.Now().UnixNano()) / 1e3 }

func (r *recorder) begin(name string, lane int) openSpan {
	r.spans = append(r.spans, span{Name: name, Start: nowMicros(), Lane: lane})
	return openSpan{r: r, i: len(r.spans) - 1, t0: time.Now()}
}

// end closes the span and returns its duration in seconds.
func (s openSpan) end() float64 {
	d := time.Since(s.t0).Seconds()
	s.r.spans[s.i].End = nowMicros()
	return d
}

// childMain runs one child process and writes its result as JSON.
func childMain(specJSON string, stdout io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: spec:", err)
		return 2
	}
	res, err := runChildSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: report:", err)
		return 1
	}
	return 0
}

func runChildSpec(spec childSpec) (*childResult, error) {
	rec := &recorder{}
	res := &childResult{}
	if spec.Probes {
		probes, err := runProbes(rec, spec.Dir, spec.Tiny)
		res.Probes, res.Spans = probes, rec.spans
		return res, err
	}
	w, err := workloadByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	if err := warmUp(); err != nil {
		return nil, err
	}
	// stopProfile ends a traced child's CPU profile and closes its file;
	// later calls do nothing.
	stopProfile := func() error { return nil }
	if spec.Profile != "" {
		f, err := os.Create(spec.Profile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopped := false
		stopProfile = func() error {
			if stopped {
				return nil
			}
			stopped = true
			pprof.StopCPUProfile()
			return f.Close()
		}
		defer stopProfile() // error paths; the success paths check it
	}

	start := time.Now()
	more := func(done int) bool {
		elapsed := time.Since(start).Seconds()
		return done == 0 || elapsed+elapsed/float64(done) <= spec.Budget
	}
	if w.configs != nil {
		cfgs := w.configs(spec.Seed, spec.Tiny)
		for i := 0; more(i); i++ {
			k := (spec.FirstOp + i) % len(cfgs)
			op := simOp(cfgs[k], k, rec)
			res.Ops = append(res.Ops, op)
			res.Setups = append(res.Setups, keyed{Key: k, V: op.SetupS})
		}
		res.Spans = rec.spans
		return res, stopProfile()
	}

	var cfgs []inpg.Config
	for i := 0; more(i); i++ {
		dir, err := workDir(spec.Dir, "sweep-")
		if err != nil {
			return nil, err
		}
		op, cells, c := sweepOp(w, spec.Seed, spec.Tiny, i, dir, rec)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		res.Ops = append(res.Ops, op)
		res.Cells = append(res.Cells, cells...)
		if cfgs == nil && op.Err == "" {
			cfgs = c
		}
	}
	if err := stopProfile(); err != nil {
		return nil, err
	}
	if cfgs != nil {
		if res.Setups, err = setupTimes(cfgs, rec); err != nil {
			return nil, err
		}
		if spec.Profile != "" {
			c, err := sweepCounters(cfgs)
			if err != nil {
				return nil, err
			}
			res.Ops[0].Counters = &c
		}
	}
	res.Spans = rec.spans
	return res, nil
}

// warmUp runs one untimed 2x2 simulation so code paging and the first heap
// growth land before any timing.
func warmUp() error {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 2, 2
	cfg.CSPerThread = 1
	if _, err := experiments.Run(cfg); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// child is a finished child process as the parent saw it.
type child struct {
	res        childResult
	start, end float64 // Unix microseconds around the process's lifetime
	maxRSSKB   int64
	err        error
	hung       bool // killed at childTimeout
}

// childTimeout bounds one child process; the longest legitimate child, a
// traced sweep with its counter pass, takes about fifteen seconds.
const childTimeout = 60 * time.Second

// runChild executes spec in a fresh copy of this binary and waits for it.
// A child that outlives childTimeout is killed and reported as hung.
func runChild(spec childSpec) child {
	c := child{start: nowMicros()}
	c.end = c.start
	exe, err := os.Executable()
	if err != nil {
		c.err = err
		return c
	}
	data, err := json.Marshal(spec)
	if err != nil {
		c.err = err
		return c
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(data))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	c.end = nowMicros()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			c.maxRSSKB = ru.Maxrss
		}
	}
	if ctx.Err() != nil {
		c.hung = true
		err = fmt.Errorf("killed after %v: %w", childTimeout, err)
	}
	if err != nil {
		c.err = fmt.Errorf("child %s: %w", spec.Workload, err)
		return c
	}
	if err := json.Unmarshal(stdout.Bytes(), &c.res); err != nil {
		c.err = fmt.Errorf("child %s: result: %w", spec.Workload, err)
	}
	return c
}
