package runner

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"inpg"
)

// tinyConfig returns a fast 2x2-mesh run distinguishable by thread count.
func tinyConfig(threads int, seed int64) inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 2, 2
	cfg.Threads = threads
	cfg.CSPerThread = 2
	cfg.CSCycles = 40
	cfg.ParallelCycles = 150
	cfg.Seed = seed
	return cfg
}

func TestWorkersDefault(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Fatal("default worker count must be at least 1")
	}
}

func TestRunSubmissionOrder(t *testing.T) {
	cfgs := []inpg.Config{
		tinyConfig(2, 1), tinyConfig(3, 2), tinyConfig(4, 3), tinyConfig(2, 4),
	}
	res, errs := RunResilient(cfgs, Policy{Workers: 4})
	want := []int{2, 3, 4, 2}
	for i, r := range res {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if r == nil || r.Threads != want[i] {
			t.Fatalf("result %d has %v threads, want %d: results out of submission order", i, r, want[i])
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	var cfgs []inpg.Config
	for i := 0; i < 6; i++ {
		cfgs = append(cfgs, tinyConfig(4, int64(i+1)))
	}
	serial, errs := RunResilient(cfgs, Policy{Workers: 1})
	parallel, perrs := RunResilient(cfgs, Policy{Workers: 8})
	for i := range serial {
		if errs[i] != nil || perrs[i] != nil {
			t.Fatalf("run %d failed: %v / %v", i, errs[i], perrs[i])
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("run %d differs between workers=1 and workers=8:\n%+v\nvs\n%+v",
				i, serial[i], parallel[i])
		}
	}
}

func TestForEachAbandonsAfterFailure(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	err := ForEach(100, 1, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped boom", err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("ran %d tasks with one worker, want exactly 4 (abandon after failure)", got)
	}
}

func TestForEachSerialOrder(t *testing.T) {
	var seen []int
	if err := ForEach(5, 1, func(i int) error {
		seen = append(seen, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("serial order = %v", seen)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}
