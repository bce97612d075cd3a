package noc

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"inpg/internal/fault"
	"inpg/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite "+trafficGoldenFile+" from this build")

// trafficGoldenFile pins the router's integer outputs under synthetic
// traffic for trafficGoldenCases. A change that alters switching on purpose
// regenerates it with `go test ./internal/noc -run TestTrafficGolden -update`
// (the package before the flag, which go test does not know) and says so
// in CHANGES.md.
const trafficGoldenFile = "testdata/traffic_golden.json"

// trafficGoldenCase is one RunTraffic configuration of the golden set.
type trafficGoldenCase struct {
	pattern  Pattern
	flits    int
	priority bool
	vcs      int
	faults   bool
}

func (c trafficGoldenCase) String() string {
	return fmt.Sprintf("%s/flits%d/prio=%t/vcs%d/faults=%t", c.pattern, c.flits, c.priority, c.vcs, c.faults)
}

// trafficGoldenCases crosses three patterns, 1- and 8-flit packets,
// priority arbitration off and on, 6 and 15 VCs per port (75 slots: two
// occupancy words) and fault injection off and on: 48 cases.
func trafficGoldenCases() []trafficGoldenCase {
	var cases []trafficGoldenCase
	for _, pattern := range []Pattern{UniformRandom, Transpose, Hotspot} {
		for _, flits := range []int{1, 8} {
			for _, priority := range []bool{false, true} {
				for _, vcs := range []int{6, 15} {
					for _, faults := range []bool{false, true} {
						cases = append(cases, trafficGoldenCase{pattern, flits, priority, vcs, faults})
					}
				}
			}
		}
	}
	return cases
}

// run drives one golden case on a 6×5 mesh with 3-flit VC buffers and
// returns its integer outputs keyed by name: the integer TrafficResult
// fields, the final cycle, the NIs' latency totals and every RouterStats
// field summed over all nodes, and the fault injector's counters.
func (c trafficGoldenCase) run(t *testing.T) map[string]int64 {
	t.Helper()
	cfg := Config{Mesh: Mesh{Width: 6, Height: 5}, VCsPerPort: c.vcs, VCDepth: 3, PriorityArb: c.priority}
	if c.faults {
		cfg.Fault = fault.AtRate(0.02, 9)
	}
	rate := 0.3
	if c.flits == 8 {
		rate = 0.04
	}
	if c.pattern == Hotspot {
		rate /= 4
	}
	eng := sim.NewEngine(3)
	n, err := New(eng, cfg)
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	res, err := RunTraffic(eng, n, TrafficConfig{
		Pattern: c.pattern, InjectionRate: rate, PacketFlits: c.flits,
		WarmupCycles: 200, MeasureCycles: 1500, Seed: 11,
	})
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	out := map[string]int64{"Cycle": int64(eng.Now())}
	addIntFields("Result.", reflect.ValueOf(*res), out)
	for id := 0; id < n.Mesh().Nodes(); id++ {
		addIntFields("NI.", reflect.ValueOf(n.NI(NodeID(id)).LatencySum), out)
		addIntFields("Router.", reflect.ValueOf(n.Router(NodeID(id)).Stats), out)
	}
	addIntFields("Fault.", reflect.ValueOf(n.FaultStats()), out)
	return out
}

// addIntFields adds every integer field of struct v to out under prefix
// plus the field name. Floats are left out, so platforms that fuse
// multiply-add agree.
func addIntFields(prefix string, v reflect.Value, out map[string]int64) {
	for i := 0; i < v.NumField(); i++ {
		name := prefix + v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			out[name] += f.Int()
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			out[name] += int64(f.Uint())
		}
	}
}

// TestTrafficGolden pins the router's integer outputs under synthetic
// traffic: results, final cycle, latency totals, router and fault
// counters, for each golden case. Switch-allocation counters such as
// VCStalls appear in no Results field, so the root golden cannot see a
// change to them; this one does. A mismatch names the case and the field.
func TestTrafficGolden(t *testing.T) {
	got := map[string]map[string]int64{}
	for _, c := range trafficGoldenCases() {
		got[c.String()] = c.run(t)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trafficGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(trafficGoldenFile)
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
			t.Errorf("%s: no recorded values in %s", name, trafficGoldenFile)
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
			t.Errorf("%s: recorded in %s but no longer run", name, trafficGoldenFile)
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
