package inpg_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"inpg"
	"inpg/internal/fault"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden testdata files of the tests run from this build")

// goldenFile pins the integer fields of Results and of each thread's row
// for goldenCases. A change that alters the simulation on purpose
// regenerates it with `go test -run TestGoldenResults -update .` and says
// so in CHANGES.md.
const goldenFile = "testdata/golden_results.json"

// goldenCases are small runs covering every lock kind under Original and
// iNPG+OCOR, the 8×8 Table 1 mesh, link faults, several locks, threads
// that draw more than 273 random numbers, and 16×16 and 32×32 meshes.
func goldenCases() map[string]inpg.Config {
	small := func(lk inpg.LockKind, mech inpg.Mechanism) inpg.Config {
		cfg := inpg.DefaultConfig()
		cfg.MeshWidth, cfg.MeshHeight = 4, 4
		cfg.Lock = lk
		cfg.Mechanism = mech
		cfg.CSPerThread = 2
		return cfg
	}
	cases := map[string]inpg.Config{}
	for _, lk := range []inpg.LockKind{inpg.LockTAS, inpg.LockTTL, inpg.LockABQL, inpg.LockMCS, inpg.LockQSL, inpg.LockCLH} {
		for _, mech := range []inpg.Mechanism{inpg.Original, inpg.INPGOCOR} {
			cases[fmt.Sprintf("4x4/%s/%s", lk, mech)] = small(lk, mech)
		}
	}
	mesh8 := small(inpg.LockQSL, inpg.INPGOCOR)
	mesh8.MeshWidth, mesh8.MeshHeight = 8, 8
	cases["8x8/QSL/iNPG+OCOR"] = mesh8
	faulty := small(inpg.LockTTL, inpg.INPGOCOR)
	faulty.Fault = fault.AtRate(0.02, 5)
	cases["4x4/TTL/iNPG+OCOR/faults0.02"] = faulty
	locks := small(inpg.LockMCS, inpg.INPGOCOR)
	locks.LockCount = 3
	cases["4x4/MCS/iNPG+OCOR/locks3"] = locks
	// 150 critical sections at two jitter draws each take every thread
	// past draw 273, where its seeded stream (sim.NewRand) builds its
	// lagged-Fibonacci state.
	long := small(inpg.LockTTL, inpg.INPGOCOR)
	long.CSPerThread = 150
	cases["4x4/TTL/iNPG+OCOR/cs150"] = long
	// Two meshes of several 64-router buffer chunks, which the network
	// builds on first use: a faulted 16×16 run, and the 32×32 QSL
	// platform of BenchmarkLargeMeshPlatformBuild, whose 256 threads run
	// on rows 0–7.
	faulty16 := small(inpg.LockTTL, inpg.INPGOCOR)
	faulty16.MeshWidth, faulty16.MeshHeight = 16, 16
	faulty16.Threads = 64
	faulty16.Fault = fault.AtRate(0.02, 5)
	cases["16x16/TTL/iNPG+OCOR/threads64/faults0.02"] = faulty16
	large := largeMeshConfig(32, inpg.LockQSL, 500)
	large.Threads = 256
	cases["32x32/QSL/iNPG+OCOR/threads256"] = large
	return cases
}

// intFields returns every integer field of res by name. Floats are left
// out, so platforms that fuse multiply-add agree.
func intFields(res *inpg.Results) map[string]int64 {
	out := map[string]int64{}
	v := reflect.ValueOf(res).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f, name := v.Field(i), v.Type().Field(i).Name; {
		case f.CanInt():
			out[name] = f.Int()
		case f.CanUint():
			out[name] = int64(f.Uint())
		}
	}
	return out
}

// TestGoldenResults pins the simulation's integer outputs: every integer
// field of Results and each thread's row from System.Threads (keys
// "PerThread[i].X"), for each golden case. A mismatch names the case and
// the field.
func TestGoldenResults(t *testing.T) {
	got := map[string]map[string]int64{}
	for name, cfg := range goldenCases() {
		sys, err := inpg.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fields := intFields(res)
		for i, th := range sys.Threads() {
			b, row := th.Breakdown, fmt.Sprintf("PerThread[%d].", i)
			fields[row+"ID"] = int64(th.ID)
			fields[row+"Parallel"] = int64(b.Parallel)
			fields[row+"COH"] = int64(b.COH)
			fields[row+"Sleep"] = int64(b.Sleep)
			fields[row+"CSE"] = int64(b.CSE)
			fields[row+"CSCompleted"] = int64(th.CSCompleted)
			fields[row+"Sleeps"] = int64(th.SleepCount)
		}
		got[name] = fields
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]int64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(got) {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no recorded values in %s", name, goldenFile)
			continue
		}
		g := got[name]
		for _, field := range sortedKeys(w) {
			if gv, ok := g[field]; !ok {
				t.Errorf("%s: field %s missing, want %d", name, field, w[field])
			} else if gv != w[field] {
				t.Errorf("%s: field %s = %d, want %d", name, field, gv, w[field])
			}
		}
		for _, field := range sortedKeys(g) {
			if _, ok := w[field]; !ok {
				t.Errorf("%s: field %s = %d has no recorded value", name, field, g[field])
			}
		}
	}
	for _, name := range sortedKeys(want) {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: recorded in %s but no longer run", name, goldenFile)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
