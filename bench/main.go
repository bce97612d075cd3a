// Command bench is the repository benchmark. It runs six workloads over
// the iNPG simulator and its campaign layers in fresh child processes,
// reports end-to-end host-time metrics from untraced children and
// per-layer metrics from a CPU-profiled child and layer probes, and diffs
// two results files. README.md defines every workload and metric.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one JSON line
//	bench [-seed N] [-seconds S] [-out results.json]         one set
//	bench -diff base.json new.json                           ledger diff
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	// tiny shrinks every configuration and runs two processes per
	// workload: the smoke test's size.
	tiny bool
	dir  string // scratch directory, removed on exit
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload and print one JSON result line; empty runs a whole set")
	seed := fs.Int64("seed", 1, "workload seed: every simulation seed derives from it")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	out := fs.String("out", "bench-results.json", "set mode: the results file; bench-trace.json is written beside it")
	diff := fs.Bool("diff", false, "compare two results files given as arguments: -diff base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diff {
		return runDiff(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	scratch, err := os.MkdirTemp("", "inpg-bench-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	o := options{seed: *seed, seconds: *seconds, dir: scratch}
	if *name == "" {
		return runSet(o, *out, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return runWorkload(o, w, *trace == 1, stdout, stderr)
}

// plan is one workload's run: children are spawned one at a time, each
// continuing the config rotation where the previous one stopped, until
// the workload's process count is reached and every config has run at
// least twice (the cross-process determinism check needs a pair).
type plan struct {
	w        *workload
	o        options
	budget   float64 // seconds across the run's children
	spent    float64 // seconds the children so far took
	procs    int
	nextOp   int
	children []child
	traced   *child
	shares   map[string]float64
}

func newPlan(w *workload, o options, budget float64) *plan {
	procs := w.procs
	if o.tiny {
		procs = 2
	}
	return &plan{w: w, o: o, budget: budget, procs: procs}
}

func (p *plan) configCount() int {
	if p.w.configs == nil {
		return 1
	}
	return len(p.w.configs(p.o.seed, p.o.tiny))
}

func (p *plan) done() bool {
	if len(p.children) < p.procs {
		return false
	}
	if len(p.children) >= 4*p.procs {
		return true // a run whose ops keep failing stops here
	}
	ok := map[int]int{}
	for _, c := range p.children {
		if c.hung {
			return true // a hung workload is not retried
		}
		for _, op := range c.res.Ops {
			if op.Err == "" {
				ok[op.Config]++
			}
		}
	}
	for k := 0; k < p.configCount(); k++ {
		if ok[k] < 2 {
			return false
		}
	}
	return true
}

// step runs the next child with an even share of the time left, so a
// child that stopped short of its share (ops do not divide it evenly)
// leaves the rest to the children after it.
func (p *plan) step() {
	left := max(p.procs-len(p.children), 1)
	c := runChild(childSpec{Workload: p.w.name, Seed: p.o.seed, FirstOp: p.nextOp,
		Budget: max(p.budget-p.spent, 0) / float64(left), Tiny: p.o.tiny, Dir: p.o.dir})
	p.spent += (c.end - c.start) / 1e6
	p.nextOp += len(c.res.Ops)
	p.children = append(p.children, c)
}

// runPlans runs the plans' children round-robin, so the workloads of a
// set interleave and share whatever the host does meanwhile.
func runPlans(plans []*plan) {
	for {
		progressed := false
		for _, p := range plans {
			if !p.done() {
				p.step()
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// runTraced reruns the workload in one CPU-profiled child and folds the
// profile into layer shares.
func (p *plan) runTraced(budget float64) error {
	prof := filepath.Join(p.o.dir, p.w.name+".pprof")
	c := runChild(childSpec{Workload: p.w.name, Seed: p.o.seed, Budget: budget,
		Tiny: p.o.tiny, Profile: prof, Dir: p.o.dir})
	p.traced = &c
	if c.err != nil {
		return c.err
	}
	shares, err := profileShares(prof)
	p.shares = shares
	return err
}

// all returns the untraced children followed by the traced one.
func (p *plan) all() []child {
	out := append([]child(nil), p.children...)
	if p.traced != nil {
		out = append(out, *p.traced)
	}
	return out
}

// endToEndValues computes the end-to-end metrics with their half-to-half
// ranges (even-indexed children against odd-indexed ones).
func (p *plan) endToEndValues() (map[string]metricValue, error) {
	whole := endToEnd(p.children)
	if whole == nil {
		return nil, errors.New("no successful op")
	}
	var even, odd []child
	for i, c := range p.children {
		if i%2 == 0 {
			even = append(even, c)
		} else {
			odd = append(odd, c)
		}
	}
	a, b := endToEnd(even), endToEnd(odd)
	out := map[string]metricValue{}
	for _, d := range endToEndMetrics {
		bound := d.Bound
		m := metricValue{Value: whole[d.Name], Unit: d.Unit, Better: d.Better, Bound: &bound}
		if a != nil && b != nil {
			lo, hi := math.Min(a[d.Name], b[d.Name]), math.Max(a[d.Name], b[d.Name])
			m.Min, m.Max = &lo, &hi
		}
		out[d.Name] = m
	}
	return out, nil
}

// perLayerValues computes the per-layer metrics; probes and the host
// reference come from the caller. Metrics that do not apply to the
// workload (bigrouter counters without big routers, cell overheads of a
// sim workload) read 0.
func (p *plan) perLayerValues(probes map[string]float64, refMs float64) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayerMetrics {
		m[d.Name] = 0
	}
	for layer, share := range p.shares {
		m[layer+".self_share"] = share
	}
	c, n := layerCounters(p.all())
	perOp := func(v uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}
	m["noc.flits_switched"] = perOp(c.Flits)
	m["noc.vc_stalls"] = perOp(c.VCStalls)
	m["coherence.dir_txns"] = perOp(c.DirTxns)
	m["coherence.invs_sent"] = perOp(c.InvsSent)
	m["coherence.l1_miss_ratio"] = ratio(c.L1Misses, c.L1Hits+c.L1Misses)
	m["coherence.early_rec_use_ratio"] = ratio(c.EarlyRecs, c.EarlyInvs)
	m["cache.mshr_reject_ratio"] = ratio(c.MSHRRejects, c.MSHRAllocs+c.MSHRRejects)
	m["bigrouter.getx_stopped"] = perOp(c.GetXStopped)
	m["bigrouter.early_invs"] = perOp(c.EarlyInvs)
	m["bigrouter.stop_ratio"] = ratio(c.GetXStopped, c.GetXPassed+c.GetXStopped)
	m["bigrouter.table_full_ratio"] = ratio(c.TableFull, c.GetXPassed+c.GetXStopped)
	m["roi_cycles"] = roiCycles(p.children)

	untraced := endToEnd(p.children)
	if flits := perOp(c.Flits); flits > 0 {
		m["noc.host_ns_per_flit"] = untraced["run_s"] * 1e9 / flits
	}
	if p.w.configs == nil {
		_, m["runner.idle_share"] = cellOverheads(p.children)
	}
	if p.traced != nil {
		if traced := endToEnd([]child{*p.traced}); traced != nil && untraced["run_s"] > 0 {
			m["trace.overhead_pct"] = 100 * (traced["run_s"]/untraced["run_s"] - 1)
		}
	}
	for k, v := range probes {
		m[k] = v
	}
	m["host.ref_ms"] = refMs
	return m
}

// resultValue and resultLine are the one-line result of a single
// workload run.
type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// runWorkload runs one workload and prints its result as the last line of
// standard output: the end-to-end metrics, or with traced the per-layer
// ones (half the time untraced for the overhead baseline, half traced,
// then the probes).
func runWorkload(o options, w *workload, traced bool, stdout, stderr io.Writer) int {
	refStart := hostRef()
	budget := o.seconds
	if traced {
		budget /= 2
	}
	p := newPlan(w, o, budget)
	runPlans([]*plan{p})
	res := resultLine{Metrics: map[string]resultValue{}}
	if !traced {
		e2e, err := p.endToEndValues()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, d := range endToEndMetrics {
			res.Metrics[d.Name] = resultValue{Value: e2e[d.Name].Value, Unit: d.Unit}
		}
	} else {
		if err := p.runTraced(o.seconds / 2); err != nil {
			fmt.Fprintf(stderr, "bench: %s: traced pass: %v\n", w.name, err)
			return 1
		}
		probes := runChild(childSpec{Probes: true, Dir: o.dir, Tiny: o.tiny})
		if probes.err != nil {
			fmt.Fprintf(stderr, "bench: probes: %v\n", probes.err)
			return 1
		}
		layers := p.perLayerValues(probes.res.Probes, (refStart+hostRef())/2)
		for _, d := range perLayerMetrics {
			res.Metrics[d.Name] = resultValue{Value: layers[d.Name], Unit: d.Unit}
		}
	}
	var firstErr string
	res.Attempted, res.Failed, firstErr = opCounts(p.all())
	res.Correct = res.Failed == 0
	if firstErr != "" {
		fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed, first: %s\n", w.name, res.Failed, res.Attempted, firstErr)
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(stderr, "bench: %s: metric %s is %v\n", w.name, name, v.Value)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runSet runs every workload untraced (interleaved), then one traced child
// per workload, then the layer probes; it writes the results file and the
// span trace, prints every metric, and returns nonzero if any op failed.
func runSet(o options, out string, stdout, stderr io.Writer) int {
	origin := nowMicros()
	refStart := hostRef()
	var plans []*plan
	for _, w := range workloads {
		plans = append(plans, newPlan(w, o, o.seconds))
	}
	runPlans(plans)
	for _, p := range plans {
		if err := p.runTraced(o.seconds / 2); err != nil {
			fmt.Fprintf(stderr, "bench: %s: traced pass: %v\n", p.w.name, err)
		}
	}
	probes := runChild(childSpec{Probes: true, Dir: o.dir, Tiny: o.tiny})
	if probes.err != nil {
		fmt.Fprintf(stderr, "bench: probes: %v\n", probes.err)
		return 1
	}
	l := buildLedger(o, plans, probes.res.Probes, refStart, hostRef())
	failed := 0
	for _, e := range l.Workloads {
		failed += e.Failed
	}

	data, err := json.MarshalIndent(l, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o644)
	}
	if err == nil {
		err = setTrace(origin, plans, probes).write(filepath.Join(filepath.Dir(out), "bench-trace.json"))
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printLedger(stdout, &l)
	if failed > 0 {
		return 1
	}
	return 0
}

// buildLedger assembles a set's results file.
func buildLedger(o options, plans []*plan, probes map[string]float64, refStart, refEnd float64) ledger {
	l := ledger{Schema: ledgerSchema, Host: hostDescription(refStart, refEnd), Seed: o.seed,
		Seconds: o.seconds, Probes: map[string]metricValue{}}
	for k, v := range probes {
		d := perLayerByName[k]
		l.Probes[k] = metricValue{Value: v, Unit: d.Unit, Better: d.Better}
	}
	renders := map[string]string{}
	for _, p := range plans {
		l.Workloads = append(l.Workloads, p.entry(probes))
		if p.w.configs == nil && len(p.children) > 0 && len(p.children[0].res.Ops) > 0 {
			renders[p.w.name] = p.children[0].res.Ops[0].Digest
		}
	}
	zero := 0.0
	for i := range l.Workloads {
		e := &l.Workloads[i]
		// Both sweeps run the same cells, so their figures must match.
		if a, b := renders["sweep-local"], renders["sweep-fleet"]; e.Name == "sweep-fleet" && a != "" && b != "" && a != b {
			e.Attempted++
			e.Failed++
			e.Error = "figure bytes differ from sweep-local"
		}
		e.Metrics["error_rate"] = metricValue{Value: ratio(uint64(e.Failed), uint64(e.Attempted)),
			Unit: "fraction", Better: "lower", Bound: &zero, N: e.Attempted}
	}
	return l
}

// entry is the plan's ledger entry: the graded end-to-end metrics, the
// per-layer metrics other than the probes, and informational timings.
func (p *plan) entry(probes map[string]float64) workloadEntry {
	e := workloadEntry{Name: p.w.name, Why: p.w.why, Processes: len(p.children), Metrics: map[string]metricValue{}}
	e.Attempted, e.Failed, e.Error = opCounts(p.all())
	if e2e, err := p.endToEndValues(); err == nil {
		for k, v := range e2e {
			e.Metrics[k] = v
		}
	} else if e.Error == "" {
		e.Error = err.Error()
	}
	for k, v := range p.perLayerValues(nil, 0) {
		if _, isProbe := probes[k]; !isProbe && k != "host.ref_ms" {
			d := perLayerByName[k]
			e.Metrics[k] = metricValue{Value: v, Unit: d.Unit, Better: d.Better}
		}
	}
	zero := 0.0
	roi := e.Metrics["roi_cycles"]
	roi.Bound = &zero // identical simulations give identical cycles
	e.Metrics["roi_cycles"] = roi
	if whole := endToEnd(p.children); whole != nil {
		e.Metrics["sim_cycles_per_s"] = metricValue{Value: whole["sim_cycles_per_s"], Unit: "cycles/s", Better: "higher"}
	}
	if p.w.configs == nil {
		// Per-cell claim→done overhead exists only on the sweeps, so it is
		// kept here rather than among the per-layer metrics every workload
		// reports; the runner and fleet probes cover those layers on every
		// workload.
		name := "runner.cell_overhead_ms"
		if p.w.viaFleet {
			name = "fleet.cell_overhead_ms"
		}
		overhead, _ := cellOverheads(p.children)
		e.Metrics[name] = metricValue{Value: overhead, Unit: "ms", Better: "lower"}
	}
	procMedian, p90v, n, ok := runDistribution(p.children)
	e.Metrics["run_s_median"] = metricValue{Value: procMedian, Unit: "s", Better: "lower", N: n}
	if ok {
		e.Metrics["run_s_p90"] = metricValue{Value: p90v, Unit: "s", Better: "lower", N: n}
	}
	return e
}

// printLedger prints every metric of a set by name, with its unit.
func printLedger(w io.Writer, l *ledger) {
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, ref %.1f/%.1f ms\n",
		l.Host.CPU, l.Host.NProc, l.Host.GOMAXPROCS, l.Host.Go, l.Host.Commit, l.Host.RefMsStart, l.Host.RefMsEnd)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	row := func(scope, name string, m metricValue) {
		rng := ""
		if m.Min != nil && m.Max != nil {
			rng = fmt.Sprintf("[%.6g, %.6g]", *m.Min, *m.Max)
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\t%s\n", scope, name, m.Value, m.Unit, rng, n)
	}
	for _, e := range l.Workloads {
		fmt.Fprintf(tw, "%s\t%d processes, %d/%d ops failed %s\t\t\t\t\n", e.Name, e.Processes, e.Failed, e.Attempted, e.Error)
		for _, k := range sortedKeys(e.Metrics) {
			row(e.Name, k, e.Metrics[k])
		}
	}
	for _, k := range sortedKeys(l.Probes) {
		row("probes", k, l.Probes[k])
	}
	tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
