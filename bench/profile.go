package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// profileShares folds a CPU profile into per-layer self-time shares with
// the toolchain's pprof.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out))
}

// foldTop sums the flat (self) column of `pprof -top` output by layer and
// divides by the total, so every sample lands in exactly one layer.
func foldTop(text string) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, l := range selfShareLayers {
		shares[l] = 0
	}
	total := 0.0
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		flat, err := parseSeconds(fields[0])
		if err != nil {
			return nil, err
		}
		shares[layerOf(packageOf(strings.Join(fields[5:], " ")))] += flat
		total += flat
	}
	if !inTable {
		return nil, fmt.Errorf("pprof output has no -top table")
	}
	if total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

// parseSeconds reads a pprof duration such as "0.47s", "10ms" or "1.2mins".
func parseSeconds(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof value %q: %w", s, err)
			}
			return v * u.scale, nil
		}
	}
	return strconv.ParseFloat(s, 64)
}

// packageOf extracts the import path from a profiled function name such
// as "inpg/internal/noc.(*Router).Tick (inline)". Assembly routines carry
// no package and yield "".
func packageOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other package paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// layerOf names the layer a package belongs to.
func layerOf(pkg string) string {
	switch {
	case pkg == "", pkg == "runtime",
		strings.HasPrefix(pkg, "runtime/internal/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "goruntime"
	case pkg == "inpg":
		return "inpg"
	case strings.HasPrefix(pkg, "inpg/internal/"):
		if l := strings.TrimPrefix(pkg, "inpg/internal/"); slices.Contains(selfShareLayers, l) {
			return l
		}
	}
	return "other"
}
