package experiments

import (
	"strings"
	"sync/atomic"
	"testing"

	"inpg"
	"inpg/internal/runner"
	"inpg/internal/workload"
)

// tiny returns heavily reduced options so every figure runs in CI time.
func tiny() Options {
	return Options{Scale: 0.02, Seed: 5, Quick: true}
}

func TestTable1Renders(t *testing.T) {
	out := Table1()
	for _, want := range []string{"8x8 mesh", "MOESI", "OCOR", "iNPG"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q", want)
		}
	}
}

func TestFig2ShapesMatchPaper(t *testing.T) {
	r, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Programs) != 3 {
		t.Fatalf("programs = %d, want 3", len(r.Programs))
	}
	for i, prog := range r.Programs {
		tas := r.LCOPercent[i][0]
		mcs := r.LCOPercent[i][3]
		if tas <= 0 || tas >= 100 {
			t.Fatalf("%s TAS LCO%% = %f out of range", prog, tas)
		}
		// The paper's ordering: TAS has the heaviest LCO, MCS the lightest.
		if mcs >= tas {
			t.Fatalf("%s: MCS LCO %.1f not below TAS %.1f", prog, mcs, tas)
		}
	}
}

func TestFig7Headline(t *testing.T) {
	r := Fig7()
	if r.BigGatesK != 22.4 || r.NormalGatesK != 19.9 {
		t.Fatal("gate counts diverge from the paper")
	}
	if !strings.Contains(r.Render(), "Packet generator") {
		t.Fatal("render incomplete")
	}
}

func TestFig8CoversAllPrograms(t *testing.T) {
	r, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MeasuredCOH == 0 && row.MeasuredCSE == 0 {
			t.Fatalf("%s measured nothing", row.Program)
		}
	}
	if !strings.Contains(r.Render(), "group") {
		t.Fatal("render incomplete")
	}
}

func TestFig9FourCases(t *testing.T) {
	r, err := Fig9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cases) != 4 {
		t.Fatalf("cases = %d, want 4", len(r.Cases))
	}
	for _, c := range r.Cases {
		total := c.ParallelPct + c.COHPct + c.CSEPct
		if total < 99 || total > 101 {
			t.Fatalf("%s percentages sum to %f", c.Mechanism, total)
		}
	}
}

func TestFig10INPGReducesRTT(t *testing.T) {
	r, err := Fig10(tiny())
	if err != nil {
		t.Fatal(err)
	}
	orig, with := r.Cases[0], r.Cases[1]
	if orig.Samples == 0 || with.Samples == 0 {
		t.Fatal("no RTT samples recorded")
	}
	if with.MeanRTT >= orig.MeanRTT {
		t.Fatalf("iNPG mean RTT %.1f not below Original %.1f", with.MeanRTT, orig.MeanRTT)
	}
	if !strings.Contains(r.Render(), "per-core mean RTT map") {
		t.Fatal("render incomplete")
	}
}

func TestFig14MonotoneDeploymentSamples(t *testing.T) {
	r, err := Fig14(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Mean) != len(Fig14Deployments) {
		t.Fatal("deployment sweep incomplete")
	}
	if r.Mean[0] != 1.0 {
		t.Fatalf("baseline expedition = %f, want 1.0", r.Mean[0])
	}
}

func TestConfigForUsesProfile(t *testing.T) {
	o := DefaultOptions()
	cfg := ConfigFor(mustProfile(t, "fluid"), inpg.INPG, inpg.LockTAS, o)
	if cfg.Mechanism != inpg.INPG || cfg.Lock != inpg.LockTAS {
		t.Fatal("mechanism/lock not applied")
	}
	if cfg.CSPerThread != 8 {
		t.Fatalf("fluid quota = %d, want 8 at scale 0.05", cfg.CSPerThread)
	}
	if cfg.CSCycles != 81 {
		t.Fatalf("CS cycles = %d, want the profile's 81", cfg.CSCycles)
	}
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMeanMaxHelpers(t *testing.T) {
	if meanOf(nil) != 0 || maxOf(nil) != 0 {
		t.Fatal("empty helpers must return 0")
	}
	if meanOf([]float64{1, 2, 3}) != 2 || maxOf([]float64{1, 9, 3}) != 9 {
		t.Fatal("helpers broken")
	}
	if maxOf([]float64{-5, -2, -9}) != -2 {
		t.Fatal("maxOf wrong on all-negative input")
	}
	if mustRatio(4, 0) != 0 || mustRatio(6, 3) != 2 {
		t.Fatal("ratio helper broken")
	}
}

func TestFig13SmallSubset(t *testing.T) {
	saved := Fig13Programs
	Fig13Programs = []string{"x264", "freq"}
	defer func() { Fig13Programs = saved }()
	r, err := Fig13(tiny(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || len(r.MeanReductionPct) != len(inpg.LockKinds) {
		t.Fatalf("rows=%d means=%d", len(r.Rows), len(r.MeanReductionPct))
	}
	if !strings.Contains(r.Render(), "mean") {
		t.Fatal("render incomplete")
	}
}

func TestFig15SmallDims(t *testing.T) {
	savedD, savedP := Fig15Dims, Fig15Programs
	Fig15Dims = []int{2, 4}
	Fig15Programs = []string{"x264"}
	defer func() { Fig15Dims, Fig15Programs = savedD, savedP }()
	r, err := Fig15(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Reduction) != 2 || len(r.Reduction[0]) != len(Fig15Tables) {
		t.Fatal("matrix shape wrong")
	}
	if !strings.Contains(r.Render(), "2x2") {
		t.Fatal("render incomplete")
	}
}

func TestAblationDeployment(t *testing.T) {
	r, err := AblationDeployment(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Rows))
	}
	// The iNPG rows must show packet-generation activity; Original none.
	if r.Rows[0].EarlyInvs != 0 || r.Rows[1].EarlyInvs == 0 {
		t.Fatalf("early-inv accounting wrong: %+v", r.Rows)
	}
	if !strings.Contains(r.Render(), "Ablation mechanism") {
		t.Fatal("render incomplete")
	}
}

func TestSuiteRowMath(t *testing.T) {
	row := SuiteRow{Runtime: [4]uint64{1000, 800, 500, 400}, CSTime: [4]uint64{600, 300, 200, 150}}
	if row.CSExpedition(2) != 3.0 {
		t.Fatalf("expedition = %f, want 3.0", row.CSExpedition(2))
	}
	if row.ROIPercent(1) != 80.0 {
		t.Fatalf("roi = %f, want 80", row.ROIPercent(1))
	}
	s := &SuiteResult{Rows: []SuiteRow{row}}
	if m, _, _ := s.INPGOverOCOR(); m != 1.5 {
		t.Fatalf("iNPG/OCOR = %f, want 1.5", m)
	}
	if e, _ := s.MaxExpedition(3); e != 4.0 {
		t.Fatalf("max expedition = %f, want 4.0", e)
	}
	if !strings.Contains(s.RenderFig11(), "iNPG over OCOR") || !strings.Contains(s.RenderFig12(), "overall mean") {
		t.Fatal("suite renders incomplete")
	}
}

// TestSuiteDeterministicAcrossWorkerCounts is the harness's core guarantee:
// the rendered figures are byte-identical no matter how many workers ran the
// batch, because each simulation is seeded and single-threaded and results
// are aggregated in submission order.
func TestSuiteDeterministicAcrossWorkerCounts(t *testing.T) {
	o := tiny()
	o.Programs = []string{"freq", "kdtree"}
	o.Seeds = 2

	o.Workers = 1
	serial, err := RunSuite(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 8
	parallel, err := RunSuite(o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := parallel.RenderFig11(), serial.RenderFig11(); got != want {
		t.Fatalf("Fig11 differs across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s", want, got)
	}
	if got, want := parallel.RenderFig12(), serial.RenderFig12(); got != want {
		t.Fatalf("Fig12 differs across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s", want, got)
	}
}

func TestOptionsProfilesSubset(t *testing.T) {
	o := tiny()
	ps, err := o.profiles()
	if err != nil || len(ps) != 24 {
		t.Fatalf("default profiles = %d, err %v; want all 24", len(ps), err)
	}
	o.Programs = []string{"kdtree", "freq"}
	ps, err = o.profiles()
	if err != nil || len(ps) != 2 {
		t.Fatalf("subset profiles = %d, err %v", len(ps), err)
	}
	o.Programs = []string{"no-such-program"}
	if _, err = o.profiles(); err == nil {
		t.Fatal("unknown program must error")
	}
}

func TestSeedList(t *testing.T) {
	o := Options{Seed: 10}
	if got := o.seedList(); len(got) != 1 || got[0] != 10 {
		t.Fatalf("default seed list = %v", got)
	}
	o.Seeds = 3
	got := o.seedList()
	if len(got) != 3 || got[0] != 10 || got[1] == got[0] {
		t.Fatalf("seed list = %v", got)
	}
}

func TestResilienceSweep(t *testing.T) {
	r, err := Resilience(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cases) != len(inpg.Mechanisms)*len(r.Rates) {
		t.Fatalf("cases = %d, want %d", len(r.Cases), len(inpg.Mechanisms)*len(r.Rates))
	}
	for _, c := range r.Cases {
		if c.Reason != "" {
			t.Fatalf("%s at rate %.3f failed: %s", c.Mechanism, c.Rate, c.Reason)
		}
		if c.CSPerKCyc <= 0 {
			t.Fatalf("%s at rate %.3f: zero throughput", c.Mechanism, c.Rate)
		}
		if c.Rate == 0 && (c.Faults != 0 || c.Retries != 0) {
			t.Fatalf("fault counters nonzero at rate 0: %+v", c)
		}
		if c.Rate > 0 && c.Faults == 0 {
			t.Fatalf("%s at rate %.3f: no faults injected", c.Mechanism, c.Rate)
		}
		if c.Failures != 0 {
			t.Fatalf("%s at rate %.3f: %d links died under transient faults", c.Mechanism, c.Rate, c.Failures)
		}
	}
	out := r.Render()
	for _, want := range []string{"Resilience", "mechanism", "retransmission effort"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestResilienceResumes: the resilience sweep runs through runAll like
// every other sweep, so a resume over its own first pass's manifests
// claims no cell and renders the same bytes.
func TestResilienceResumes(t *testing.T) {
	o := tiny()
	o.ManifestDir = t.TempDir()
	first, err := Resilience(o)
	if err != nil {
		t.Fatal(err)
	}
	var claims atomic.Int64
	o.Resume = o.ManifestDir
	o.Observer = func(out runner.Outcome) {
		if out.Status == runner.StatusRunning {
			claims.Add(1)
		}
	}
	second, err := Resilience(o)
	if err != nil {
		t.Fatal(err)
	}
	if n := claims.Load(); n != 0 {
		t.Fatalf("resumed resilience sweep claimed %d cells, want 0", n)
	}
	if a, b := first.Render(), second.Render(); a != b {
		t.Fatalf("resumed render differs:\n%s\nvs\n%s", a, b)
	}
}
