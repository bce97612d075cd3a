package noc

import (
	"fmt"
	"testing"

	"inpg/internal/sim"
)

// BenchmarkTrafficSteadyState drives a 4×4 mesh with uniform traffic and
// reports allocations — the guard for the hot-path allocation diet: packet
// pooling, VC-buffer reuse and closure-free ejection. A regression here
// (allocs/op creeping back up) means a flit/packet path started allocating
// per event again.
func BenchmarkTrafficSteadyState(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(7)
		n, err := New(eng, Config{Mesh: Mesh{Width: 4, Height: 4}, VCsPerPort: 6, VCDepth: 4})
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunTraffic(eng, n, TrafficConfig{
			Pattern: UniformRandom, InjectionRate: 0.05, PacketFlits: 1,
			WarmupCycles: 100, MeasureCycles: 500, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Delivered != res.Injected {
			b.Fatalf("lost packets: %d/%d", res.Delivered, res.Injected)
		}
	}
}

// BenchmarkRouterStream measures the router pipeline's host cost per
// switched flit: an 8×8 mesh under uniform random traffic, loaded enough
// that most routers hold flits most cycles (0.90 of router-cycles for
// flits=1 and 0.72 for flits=8, over seeds 1–4). flits=1 is the traffic
// the simulator carries — coherence control messages, lock-word replies
// included, are single-flit packets — and flits=8 streams cache-block data
// packets. Only 24% (flits=1) and 48% (flits=8) of those busy router ticks
// hold a single occupied input VC, against 82–92% on the simulator's own
// runs, so this is the benchmark where the sole-requester shortcut in
// Router.Tick applies least. Network construction is excluded from the
// timing.
func BenchmarkRouterStream(b *testing.B) {
	for _, c := range []struct {
		flits int
		rate  float64 // packets per node per cycle
	}{{1, 0.2}, {8, 0.02}} {
		b.Run(fmt.Sprintf("flits=%d", c.flits), func(b *testing.B) {
			b.ReportAllocs()
			var flits uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := sim.NewEngine(7)
				n, err := New(eng, Config{Mesh: Mesh{Width: 8, Height: 8}, VCsPerPort: 6, VCDepth: 4})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := RunTraffic(eng, n, TrafficConfig{
					Pattern: UniformRandom, InjectionRate: c.rate, PacketFlits: c.flits,
					WarmupCycles: 200, MeasureCycles: 2000, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Delivered != res.Injected {
					b.Fatalf("lost packets: %d/%d", res.Delivered, res.Injected)
				}
				for id := 0; id < n.Mesh().Nodes(); id++ {
					flits += n.Router(NodeID(id)).Stats.FlitsSwitched
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(flits), "ns/flit")
		})
	}
}

// BenchmarkPacketPool isolates the free-list round trip: steady-state
// get/put must not allocate at all once the pool is warm.
func BenchmarkPacketPool(b *testing.B) {
	var pp packetPool
	pp.put(new(Packet))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pp.get()
		p.Dst = NodeID(i)
		pp.put(p)
	}
}
