// Package experiments regenerates every figure of the paper's evaluation
// (Section 5): one runner per figure, each returning a typed result with a
// paper-style textual rendering. cmd/inpgbench drives them from the
// command line and the root benchmark suite exposes one testing.B
// benchmark per figure.
//
// Runs are scaled-down slices of the ROI (see DESIGN.md): the per-thread
// critical-section quota is profile.CSPerThread(threads, Scale), so the
// full suite completes in minutes while preserving contention structure.
package experiments

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"inpg"
	"inpg/internal/fault"
	"inpg/internal/manifest"
	"inpg/internal/runner"
	"inpg/internal/workload"
)

// Options tunes experiment size.
type Options struct {
	// Scale multiplies each program's ROI critical-section count
	// (per-thread quota = TotalCS/threads × Scale, min 2).
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Seeds, when > 1, averages the Figure 11/12 suite (RunSuite) over
	// that many seeds starting at Seed; the other figures run Seed only.
	Seeds int
	// Quick shrinks runs further for benchmarks and smoke tests.
	Quick bool
	// Workers bounds how many simulations of a sweep run concurrently;
	// 0 selects GOMAXPROCS. Every simulation stays single-threaded and
	// seeded, so figure outputs are identical for any worker count.
	Workers int
	// Programs, when non-empty, restricts the program-sweep figures
	// (8, 11/12) to the named workload profiles.
	Programs []string
	// Compat runs every simulation with the engine's always-tick
	// reference mode instead of activity-driven scheduling. Figure
	// outputs are identical either way (the scheduler is cycle-exact);
	// this exists to demonstrate that and to debug scheduler changes.
	Compat bool
	// FaultRate injects transient link and port faults at this combined
	// per-flit rate (see fault.AtRate). Zero — the default — leaves the
	// fault layer entirely out of the build, keeping figure outputs
	// byte-identical to fault-free baselines.
	FaultRate float64
	// FaultSeed seeds the fault injector's keyed hash independently of
	// the simulation seed; zero derives it from Seed.
	FaultSeed int64
	// WatchdogWindow overrides the liveness watchdog (cycles without
	// progress before a run is declared wedged): 0 keeps the default
	// window, negative disables the watchdog.
	WatchdogWindow int64
	// Metrics enables the per-run telemetry registry (internal/metrics)
	// on every configuration a sweep builds. Registered instruments are
	// read only at snapshot time, so figure outputs are byte-identical
	// with metrics on or off (pinned by test).
	Metrics bool
	// JourneyRate samples this fraction of critical-section acquisitions
	// into causal lock-journey records (internal/journey). A nonzero rate
	// builds each run's telemetry registry (inpg.New puts the per-stage
	// histograms in it); sampling never perturbs simulation results, so
	// figures other than the latency breakdown are byte-identical at any
	// rate.
	JourneyRate float64
	// ManifestDir, when set, writes one JSON run manifest per simulation
	// (internal/manifest) into this directory, named after the sweep and
	// the run's submission index. Each sweep creates the directory when
	// it starts, so a sweep killed before its first manifest can still
	// be restarted with Resume on it.
	ManifestDir string
	// Observer, when set, receives every run's lifecycle outcomes after
	// the manifest writer does; the benchmark times its sweep cells with
	// them. It is called from worker goroutines and must be safe for
	// concurrent use.
	Observer runner.Observer
	// RunTimeout, when positive, bounds each run's wall-clock time via
	// cooperative cancellation; an overrunning run fails its cell with a
	// timeout-class error carrying full diagnostics.
	RunTimeout time.Duration
	// Resume, when set, names a manifest directory from a prior
	// invocation: cells whose manifest records a successful run of a
	// configuration with a matching digest are skipped and their results
	// reconstructed from the manifest; only the gaps re-run. It is the
	// one way a failed cell runs again: a sweep runs every cell once.
	Resume string
	// ChaosPanicCells and ChaosDeadlineCells inject failures into the
	// named sweep cells (by submission index) — a panic at the start of
	// the run, or a wall-time budget so tight the run always times out.
	// They exist for chaos smoke tests of the keep-going machinery; empty
	// slices — the default — leave every sweep untouched. The panic hook
	// runs in the local pool only, so a sweep with a Campaign refuses
	// ChaosPanicCells; the deadline travels in the configuration and
	// works on both.
	ChaosPanicCells    []int
	ChaosDeadlineCells []int
	// Campaign, when set, dispatches every sweep through a distributed
	// campaign runner — the fleet coordinator — instead of the local
	// worker pool. The runner receives the same configurations and Policy
	// a local sweep would (Skip/Observer, so resume, manifests and the
	// caller's Observer work unchanged); Workers applies only to local
	// execution.
	Campaign CampaignRunner
}

// CampaignRunner distributes one sweep across external executors under
// runner.RunResilient's contract: every cell runs once, with
// index-aligned results and typed errors. internal/fleet's Coordinator
// implements it.
type CampaignRunner interface {
	RunCampaign(sweep string, cfgs []inpg.Config, p runner.Policy) ([]*inpg.Results, []*runner.RunError)
}

// chaosDeadline is the wall-time budget ChaosDeadlineCells impose: below
// any real run's first cooperative abort check, so the cell always fails
// with a timeout regardless of host speed.
const chaosDeadline = time.Nanosecond

// Missing annotates one sweep cell that produced no results: which cell,
// and its typed failure. Figures carry their Missing list and render it
// after the table instead of dying on the first bad cell.
type Missing struct {
	Sweep string
	Index int
	Cause runner.Cause
	Err   error
}

// String renders the annotation in the stable MISSING(cell, cause) form.
func (m Missing) String() string {
	return fmt.Sprintf("MISSING(%s/%d, %s): %v", m.Sweep, m.Index, m.Cause, m.Err)
}

// missingCells converts a per-index error vector into Missing annotations.
func missingCells(sweep string, errs []*runner.RunError) []Missing {
	var out []Missing
	for i, err := range errs {
		if err != nil {
			out = append(out, Missing{Sweep: sweep, Index: i, Cause: err.Cause, Err: err})
		}
	}
	return out
}

// renderMissing appends the annotations to a figure rendering; a clean
// sweep appends nothing, keeping fault-free output byte-identical.
func renderMissing(b *strings.Builder, missing []Missing) {
	for _, m := range missing {
		fmt.Fprintf(b, "%s\n", m)
	}
}

// cell returns the i'th result, substituting an empty Results for a
// missing cell so partial aggregation can proceed; the gap itself is
// reported through the sweep's Missing annotations.
func cell(results []*inpg.Results, i int) *inpg.Results {
	if i < len(results) && results[i] != nil {
		return results[i]
	}
	return &inpg.Results{}
}

// DefaultOptions returns the options used for the published EXPERIMENTS.md
// numbers.
func DefaultOptions() Options { return Options{Scale: 0.05, Seed: 42} }

// quickScale reduces the CS quota under Quick mode.
func (o Options) quickScale() float64 {
	if o.Quick {
		return o.Scale / 2
	}
	return o.Scale
}

// ConfigFor builds the simulation configuration for one program under one
// mechanism and lock primitive on the default 8×8 platform.
func ConfigFor(p workload.Profile, mech inpg.Mechanism, lk inpg.LockKind, o Options) inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.Mechanism = mech
	cfg.Lock = lk
	cfg.Seed = o.Seed
	threads := cfg.MeshWidth * cfg.MeshHeight
	cfg.CSPerThread = p.CSPerThread(threads, o.quickScale())
	cfg.CSCycles = p.AvgCSCycles
	cfg.CSJitter = p.AvgCSCycles / 3
	cfg.ParallelCycles = p.ParallelCycles
	cfg.ParallelJitter = p.ParallelCycles / 3
	cfg.AlwaysTick = o.Compat
	cfg.WatchdogWindow = o.WatchdogWindow
	cfg.Metrics = o.Metrics
	cfg.JourneyRate = o.JourneyRate
	if o.FaultRate > 0 {
		cfg.Fault = fault.AtRate(o.FaultRate, o.faultSeed())
	}
	return cfg
}

// faultSeed resolves the injector seed: explicit, or derived from Seed.
func (o Options) faultSeed() int64 {
	if o.FaultSeed != 0 {
		return o.FaultSeed
	}
	return o.Seed ^ 0x66a0_17fa
}

// seedList expands Options into the seeds to average over.
func (o Options) seedList() []int64 {
	n := o.Seeds
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = o.Seed + int64(i)*1009
	}
	return out
}

// Run executes one configuration.
func Run(cfg inpg.Config) (*inpg.Results, error) {
	sys, err := inpg.New(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// runAll executes a batch of configurations across Options.Workers cores
// in keep-going mode and returns the results in submission order, one nil
// slot plus one Missing annotation per failed cell. Sweeps build their
// full configuration list up front, submit it here, and aggregate from
// the ordered results, so their figures are identical for any worker
// count; on fault-free sweeps the Missing list is empty and results match
// in-place runs bit for bit. sweep names the batch in run manifests,
// resume scans and MISSING lines. The error return is reserved for
// infrastructure failures (an unreadable resume directory,
// a manifest directory that cannot be created, chaos the campaign runner
// cannot carry out), never for individual runs.
func runAll(o Options, sweep string, cfgs []inpg.Config) ([]*inpg.Results, []Missing, error) {
	if o.Campaign != nil && len(o.ChaosPanicCells) > 0 {
		// The panic hook is a Go func, which cannot cross the wire to a
		// fleet worker: the cells would silently run clean.
		return nil, nil, fmt.Errorf("%s: chaos panic cells need the local worker pool: the panic hook cannot reach fleet workers", sweep)
	}
	if len(o.ChaosDeadlineCells) > 0 {
		// The unmeetable budget is part of the cell's configuration, so
		// its digest, outcomes and manifest record it, and resume never
		// mistakes it for the clean cell.
		cfgs = slices.Clone(cfgs)
		for _, i := range o.ChaosDeadlineCells {
			if i >= 0 && i < len(cfgs) {
				cfgs[i].WallTimeBudget = chaosDeadline
			}
		}
	}
	p := runner.Policy{
		Workers:    o.Workers,
		RunTimeout: o.RunTimeout,
		Observer:   o.observer(sweep),
		PreAttempt: o.chaosPreAttempt(),
	}
	var prefill []*inpg.Results
	if o.Resume != "" {
		prior, warnings, err := manifest.ScanDir(o.Resume, sweep)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: resume scan %s: %w", sweep, o.Resume, err)
		}
		for _, warning := range warnings {
			fmt.Fprintf(os.Stderr, "experiments: resume: %s\n", warning)
		}
		prefill = make([]*inpg.Results, len(cfgs))
		for i, cfg := range cfgs {
			if m, ok := prior[i]; ok && m.Status == manifest.StatusOK && m.ConfigDigest == cfg.Digest() {
				prefill[i] = m.ToResults()
			}
		}
		p.Skip = func(i int) bool { return prefill[i] != nil }
		// A skipped cell's outcome carries its manifest's counter
		// snapshot, so an observer that reads snapshots (-fig lat's
		// journey breakdown) sees a resumed cell as it saw it run.
		if obs := p.Observer; obs != nil {
			p.Observer = func(out runner.Outcome) {
				if out.Status == runner.StatusSkipped {
					out.Snapshot = prior[out.Index].Metrics
				}
				obs(out)
			}
		}
	}
	// After the resume scan, which must still fail on a directory nobody
	// created.
	if o.ManifestDir != "" {
		if err := os.MkdirAll(o.ManifestDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("%s: manifest dir: %w", sweep, err)
		}
	}
	var results []*inpg.Results
	var errs []*runner.RunError
	if o.Campaign != nil {
		results, errs = o.Campaign.RunCampaign(sweep, cfgs, p)
	} else {
		results, errs = runner.RunResilient(cfgs, p)
	}
	for i, r := range prefill {
		if r != nil && results[i] == nil {
			results[i] = r
		}
	}
	return results, missingCells(sweep, errs), nil
}

// chaosPreAttempt maps ChaosPanicCells onto a Policy.PreAttempt that
// panics at the start of the named cells' runs; nil when unused.
func (o Options) chaosPreAttempt() func(i int) {
	if len(o.ChaosPanicCells) == 0 {
		return nil
	}
	cells := intSet(o.ChaosPanicCells)
	return func(i int) {
		if cells[i] {
			panic(fmt.Sprintf("chaos: injected panic in cell %d", i))
		}
	}
}

// intSet builds a membership set from a cell-index list.
func intSet(v []int) map[int]bool {
	s := make(map[int]bool, len(v))
	for _, x := range v {
		s[x] = true
	}
	return s
}

// observer composes manifest emission with the caller-installed observer;
// nil when neither is configured, so unobserved sweeps take the plain
// path. Manifest write failures are reported to stderr rather than
// aborting a sweep that already holds valid results.
func (o Options) observer(sweep string) runner.Observer {
	if o.ManifestDir == "" && o.Observer == nil {
		return nil
	}
	return func(out runner.Outcome) {
		// Skipped cells are resume hits: their manifest on disk is the
		// good record being reused — never overwrite it with a blank one.
		// Nor may an outcome with neither results nor an error: the fleet
		// emits one to close the claim of a worker whose lease expired or
		// whose cell another worker's report settled, and the settling
		// report writes the manifest.
		if out.Done && out.Status != runner.StatusSkipped && (out.Res != nil || out.Err != nil) && o.ManifestDir != "" {
			m := manifest.Build(sweep, out.Index, out.Cfg, out.Res, out.Snapshot, out.WallSeconds, out.Err)
			if _, err := m.WriteFile(o.ManifestDir); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: manifest %s/%d: %v\n", sweep, out.Index, err)
			}
		}
		if o.Observer != nil {
			o.Observer(out)
		}
	}
}

// profiles returns the workload set a program sweep covers: all 24
// profiles, or the Options.Programs subset.
func (o Options) profiles() ([]workload.Profile, error) {
	if len(o.Programs) == 0 {
		return workload.Profiles(), nil
	}
	out := make([]workload.Profile, 0, len(o.Programs))
	for _, name := range o.Programs {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// mustRatio returns num/den, guarding zero denominators.
func mustRatio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// meanOf averages a slice.
func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// maxOf returns the maximum of a slice (0 when empty). Unlike a
// zero-seeded fold it is correct for all-negative inputs.
func maxOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// header renders a section banner.
func header(b *strings.Builder, title string) {
	fmt.Fprintf(b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
}
