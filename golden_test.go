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

// goldenFile pins the integer fields of Results for goldenCases. A change
// that alters the simulation on purpose regenerates it with
// `go test -run TestGoldenResults -update .` and says so in CHANGES.md.
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

// intFields flattens every integer field reachable from v into out, keyed
// by its path (e.g. "PerThread[3].COH"). An embedded struct's fields keep
// their own names ("Runtime", not "Summary.Runtime"). Floats are left
// out, so platforms that fuse multiply-add agree.
func intFields(path string, v reflect.Value, out map[string]int64) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out[path] = v.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out[path] = int64(v.Uint())
	case reflect.Pointer:
		if !v.IsNil() {
			intFields(path, v.Elem(), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			name := f.Name
			switch {
			case f.Anonymous:
				name = path
			case path != "":
				name = path + "." + name
			}
			intFields(name, v.Field(i), out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			intFields(fmt.Sprintf("%s[%d]", path, i), v.Index(i), out)
		}
	}
}

// TestGoldenResults pins the simulation's integer outputs: every integer
// field of Results, per-thread rows included, for each golden case. A
// mismatch names the case and the field.
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
		fields := map[string]int64{}
		intFields("", reflect.ValueOf(res), fields)
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
