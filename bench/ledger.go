package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// ledgerSchema versions the results file layout.
const ledgerSchema = 1

// ledger is one set's results file: the host it ran on and every metric
// of every workload, plus the layer probes.
type ledger struct {
	Schema    int                    `json:"schema"`
	Host      hostInfo               `json:"host"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Workloads []workloadEntry        `json:"workloads"`
	Probes    map[string]metricValue `json:"probes"`
}

// hostInfo records where a set ran. RefMs are the SHA-256 reference loop
// at the set's start and end: not graded, they tell a slower host from a
// slower commit.
type hostInfo struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	RefMsStart float64 `json:"ref_ms_start"`
	RefMsEnd   float64 `json:"ref_ms_end"`
}

type workloadEntry struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Processes int                    `json:"processes"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Error     string                 `json:"error,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricValue is one measured metric. Bound marks a graded metric; Min and
// Max, where present, are the metric recomputed over each half of the
// run's processes (even and odd), the spread the diff's verdicts use.
type metricValue struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
	N      int      `json:"n,omitempty"`
}

func hostDescription(refStart, refEnd float64) hostInfo {
	h := hostInfo{
		CPU: runtime.GOARCH, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", RefMsStart: refStart, RefMsEnd: refEnd,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// refSink keeps the reference loop's result observable.
var refSink byte

// hostRef times a fixed SHA-256 loop in milliseconds.
func hostRef() float64 {
	start := time.Now()
	sum := sha256.Sum256([]byte("inpg bench reference"))
	for i := 0; i < 1<<18; i++ {
		sum = sha256.Sum256(sum[:])
	}
	refSink = sum[0]
	return float64(time.Since(start).Microseconds()) / 1e3
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if l.Schema != ledgerSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, l.Schema, ledgerSchema)
	}
	return &l, nil
}

// diffRow is one (workload, metric) comparison.
type diffRow struct {
	Workload, Metric string
	Base, New        float64
	DeltaPct         float64
	Bound            *float64
	Verdict          string
}

// verdict grades new against base: "worse" or "better" when the change
// exceeds the bound, "same" within it, "unresolved" when either side's
// half-to-half spread exceeds the bound and their ranges overlap, and
// "info" for ungraded metrics.
func verdict(base, cur metricValue) string {
	if cur.Bound == nil {
		return "info"
	}
	bound := *cur.Bound
	worse := relDelta(base.Value, cur.Value)
	if cur.Better == "higher" {
		worse = -worse
	}
	if (spread(base) > bound || spread(cur) > bound) && overlap(base, cur) {
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "same"
}

// relDelta is (cur - base) / base, with a zero base giving 0 for an equal
// value and an infinite change otherwise.
func relDelta(base, cur float64) float64 {
	switch {
	case cur == base:
		return 0
	case base == 0:
		return math.Copysign(math.Inf(1), cur-base)
	}
	return (cur - base) / math.Abs(base)
}

func rangeOf(m metricValue) (lo, hi float64) {
	lo, hi = m.Value, m.Value
	if m.Min != nil {
		lo = math.Min(lo, *m.Min)
	}
	if m.Max != nil {
		hi = math.Max(hi, *m.Max)
	}
	return lo, hi
}

func spread(m metricValue) float64 {
	lo, hi := rangeOf(m)
	if m.Value == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m.Value)
}

func overlap(a, b metricValue) bool {
	alo, ahi := rangeOf(a)
	blo, bhi := rangeOf(b)
	return alo <= bhi && blo <= ahi
}

// diffLedgers compares every metric present in both ledgers, workload by
// workload, then the probes.
func diffLedgers(base, cur *ledger) []diffRow {
	var rows []diffRow
	add := func(workload string, names []string, b, c map[string]metricValue) {
		for _, name := range names {
			bv, ok1 := b[name]
			cv, ok2 := c[name]
			if !ok1 || !ok2 {
				continue
			}
			rows = append(rows, diffRow{Workload: workload, Metric: name, Base: bv.Value, New: cv.Value,
				DeltaPct: 100 * relDelta(bv.Value, cv.Value), Bound: cv.Bound, Verdict: verdict(bv, cv)})
		}
	}
	baseByName := map[string]workloadEntry{}
	for _, w := range base.Workloads {
		baseByName[w.Name] = w
	}
	for _, w := range cur.Workloads {
		if b, ok := baseByName[w.Name]; ok {
			add(w.Name, sortedKeys(w.Metrics), b.Metrics, w.Metrics)
		}
	}
	add("probes", sortedKeys(cur.Probes), base.Probes, cur.Probes)
	return rows
}

// runDiff prints the diff of two ledgers and returns 1 if any graded
// metric got worse.
func runDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench -diff base.json new.json")
		return 2
	}
	base, err := readLedger(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cur, err := readLedger(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "base: %s, %s, commit %s, ref %.1f/%.1f ms\n", args[0], base.Host.CPU, base.Host.Commit, base.Host.RefMsStart, base.Host.RefMsEnd)
	fmt.Fprintf(stdout, "new:  %s, %s, commit %s, ref %.1f/%.1f ms\n", args[1], cur.Host.CPU, cur.Host.Commit, cur.Host.RefMsStart, cur.Host.RefMsEnd)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tdelta\tbound\tverdict")
	worse := 0
	for _, r := range diffLedgers(base, cur) {
		bound := "-"
		if r.Bound != nil {
			bound = fmt.Sprintf("%.0f%%", 100**r.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%s\t%s\n", r.Workload, r.Metric, r.Base, r.New, r.DeltaPct, bound, r.Verdict)
		if r.Verdict == "worse" {
			worse++
		}
	}
	tw.Flush()
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse\n", worse)
		return 1
	}
	return 0
}
