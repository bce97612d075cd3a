package main

import (
	"math"
	"os"
	"testing"
)

func TestFoldTopAttributesEverySample(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := foldTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"noc": 0.40, "sim": 0.25, "goruntime": 0.15, "bigrouter": 0.05, "inpg": 0.05,
		"other": 0.04, "coherence": 0.02, "cache": 0.015, "lock": 0.01, "cpu": 0.01, "memory": 0.005,
		"runner": 0, "manifest": 0, "fleet": 0,
	}
	if len(shares) != len(selfShareLayers) {
		t.Errorf("%d layers folded, want every one of the %d", len(shares), len(selfShareLayers))
	}
	sum := 0.0
	for layer, share := range shares {
		sum += share
		if math.Abs(share-want[layer]) > 1e-9 {
			t.Errorf("%s.self_share = %v, want %v", layer, share, want[layer])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestFoldTopRejectsOutputWithoutTable(t *testing.T) {
	if _, err := foldTop("pprof: no samples\n"); err == nil {
		t.Fatal("want an error for output without a -top table")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"inpg/internal/noc.(*Router).Tick":           "inpg/internal/noc",
		"inpg/internal/sim.(*Engine).Sleep (inline)": "inpg/internal/sim",
		"inpg.New":         "inpg",
		"runtime.mallocgc": "runtime",
		"aeshashbody":      "",
		"slices.SortFunc[go.shape.[]inpg/internal/noc.X]":      "slices",
		"net/http.(*conn).serve":                               "net/http",
		"inpg/internal/fleet.(*Coordinator).handleLease.func1": "inpg/internal/fleet",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseSeconds(t *testing.T) {
	for s, want := range map[string]float64{"0.47s": 0.47, "10ms": 0.01, "1.5mins": 90, "250us": 250e-6, "0": 0} {
		got, err := parseSeconds(s)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseSeconds(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}
