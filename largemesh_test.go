package inpg_test

// Mesh-generality checks: nothing in the stack may assume the default 8×8
// platform. These tests instantiate 16×16 and 32×32 systems end to end —
// topology, big-router deployment, directory homes, thread placement.

import (
	"testing"

	"inpg"
	"inpg/internal/bigrouter"
	"inpg/internal/noc"
)

// largeConfig is a contention-light large-mesh run that still exercises
// the full protocol on every node.
func largeConfig(dim int, mech inpg.Mechanism, lk inpg.LockKind) inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = dim, dim
	cfg.Mechanism = mech
	cfg.Lock = lk
	cfg.CSPerThread = 1
	cfg.ParallelCycles = 500
	cfg.ParallelJitter = 100
	cfg.Seed = 11
	return cfg
}

func TestSixteenBySixteenAllMechanisms(t *testing.T) {
	for _, mech := range inpg.Mechanisms {
		mech := mech
		t.Run(mech.String(), func(t *testing.T) {
			cfg := largeConfig(16, mech, inpg.LockMCS)
			sys, err := inpg.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			threads := 16 * 16
			if res.Threads != threads {
				t.Fatalf("Threads = %d, want %d", res.Threads, threads)
			}
			if int(res.CSCompleted) != threads*cfg.CSPerThread {
				t.Fatalf("CSCompleted = %d, want %d", res.CSCompleted, threads*cfg.CSPerThread)
			}
		})
	}
}

func TestThirtyTwoByThirtyTwoFullSystem(t *testing.T) {
	cfg := largeConfig(32, inpg.INPG, inpg.LockQSL)
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	threads := 32 * 32
	if res.Threads != threads {
		t.Fatalf("Threads = %d, want %d", res.Threads, threads)
	}
	if int(res.CSCompleted) != threads {
		t.Fatalf("CSCompleted = %d, want %d", res.CSCompleted, threads)
	}
	if res.Stopped == 0 {
		t.Fatal("no lock request was ever stopped by a big router: iNPG is inert on the large mesh")
	}
}

// TestQSLWakeAfterProbeAcquiresOnce pins a QSL sleep/wake race on a
// 32×32 mesh: a release wakes a sleeper whose post-enqueue probe then
// acquires the lock while the woken thread is still switching back in.
// The resumed thread must not spin for (and complete) a second critical
// section; seed 3 hits the race.
func TestQSLWakeAfterProbeAcquiresOnce(t *testing.T) {
	cfg := largeConfig(32, inpg.INPGOCOR, inpg.LockQSL)
	cfg.CSCycles, cfg.CSJitter = 50, 15
	cfg.ParallelCycles, cfg.ParallelJitter = 500, 125
	cfg.Seed = 3
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Threads * cfg.CSPerThread; int(res.CSCompleted) != want {
		t.Fatalf("CSCompleted = %d, want %d: a lock was granted twice", res.CSCompleted, want)
	}
}

// TestDeploymentScalesWithMesh checks big-router placement off the 8×8
// default: the half-the-nodes checkerboard on 16×16 and a strided spread
// on 32×32 must cover the mesh without duplicates.
func TestDeploymentScalesWithMesh(t *testing.T) {
	m := noc.Mesh{Width: 16, Height: 16}
	nodes := bigrouter.Deployment(m, 128)
	if len(nodes) != 128 {
		t.Fatalf("checkerboard deployment on 16x16 placed %d big routers, want 128", len(nodes))
	}
	for _, id := range nodes {
		x, y := m.Coord(id)
		if (x+y)%2 != 1 {
			t.Fatalf("node %d at (%d,%d) breaks the checkerboard", id, x, y)
		}
	}

	m = noc.Mesh{Width: 32, Height: 32}
	nodes = bigrouter.Deployment(m, 64)
	if len(nodes) != 64 {
		t.Fatalf("strided deployment on 32x32 placed %d big routers, want 64", len(nodes))
	}
	seen := map[noc.NodeID]bool{}
	for _, id := range nodes {
		if id < 0 || int(id) >= m.Nodes() || seen[id] {
			t.Fatalf("deployment produced out-of-range or duplicate node %d", id)
		}
		seen[id] = true
	}
}
