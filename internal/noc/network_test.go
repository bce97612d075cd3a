package noc

import (
	"testing"

	"inpg/internal/sim"
)

// testNet builds a network with a collector sink at every node.
func testNet(t *testing.T, cfg Config) (*sim.Engine, *Network, [][]*Packet) {
	t.Helper()
	eng := sim.NewEngine(7)
	n, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]*Packet, cfg.Mesh.Nodes())
	for id := 0; id < cfg.Mesh.Nodes(); id++ {
		id := id
		n.NI(NodeID(id)).SetSink(SinkFunc(func(_ sim.Cycle, p *Packet) {
			got[id] = append(got[id], p)
		}))
	}
	return eng, n, got
}

func run(eng *sim.Engine, n *Network, max sim.Cycle) {
	eng.Run(max, func() bool { return n.InFlight() == 0 })
}

func TestSinglePacketDelivery(t *testing.T) {
	cfg := DefaultConfig()
	eng, n, got := testNet(t, cfg)
	src, dst := NodeID(0), NodeID(63)
	n.NI(src).Inject(&Packet{Dst: dst, VNet: VNetRequest, Size: 1})
	run(eng, n, 1000)
	if len(got[dst]) != 1 {
		t.Fatalf("delivered %d packets at dst, want 1", len(got[dst]))
	}
	p := got[dst][0]
	if p.Src != src {
		t.Fatalf("Src = %d, want %d", p.Src, src)
	}
	if p.Hops != n.Mesh().Distance(src, dst) {
		t.Fatalf("hops = %d, want %d", p.Hops, n.Mesh().Distance(src, dst))
	}
	// 14 hops at 2 cycles each plus injection/ejection overhead.
	lat := p.DeliveredAt - p.InjectedAt
	if lat < sim.Cycle(2*p.Hops) || lat > sim.Cycle(2*p.Hops+10) {
		t.Fatalf("latency %d out of expected band for %d hops", lat, p.Hops)
	}
}

func TestSelfDelivery(t *testing.T) {
	cfg := DefaultConfig()
	eng, n, got := testNet(t, cfg)
	n.NI(5).Inject(&Packet{Dst: 5, VNet: VNetResponse, Size: 1})
	run(eng, n, 100)
	if len(got[5]) != 1 {
		t.Fatalf("self packet not delivered (got %d)", len(got[5]))
	}
}

func TestMultiFlitDataPacket(t *testing.T) {
	cfg := DefaultConfig()
	eng, n, got := testNet(t, cfg)
	n.NI(0).Inject(&Packet{Dst: 7, VNet: VNetResponse, Size: DataFlits})
	run(eng, n, 1000)
	if len(got[7]) != 1 {
		t.Fatalf("data packet not delivered")
	}
}

func TestAllPairsDelivery(t *testing.T) {
	cfg := Config{Mesh: Mesh{Width: 4, Height: 4}, VCsPerPort: 6, VCDepth: 4}
	eng, n, got := testNet(t, cfg)
	want := make([]int, cfg.Mesh.Nodes())
	for s := 0; s < cfg.Mesh.Nodes(); s++ {
		for d := 0; d < cfg.Mesh.Nodes(); d++ {
			n.NI(NodeID(s)).Inject(&Packet{Dst: NodeID(d), VNet: VNet(int(s+d) % int(NumVNets)), Size: 1})
			want[d]++
		}
	}
	run(eng, n, 20000)
	if n.InFlight() != 0 {
		t.Fatalf("network did not drain: %d in flight", n.InFlight())
	}
	for d := range want {
		if len(got[d]) != want[d] {
			t.Fatalf("node %d received %d packets, want %d", d, len(got[d]), want[d])
		}
	}
}

func TestHeavyHotspotDrains(t *testing.T) {
	// Everyone hammers node 0 with data packets: tests VC back-pressure and
	// credit flow under saturation. The network must drain without deadlock.
	cfg := Config{Mesh: Mesh{Width: 4, Height: 4}, VCsPerPort: 6, VCDepth: 2}
	eng, n, got := testNet(t, cfg)
	total := 0
	for s := 1; s < cfg.Mesh.Nodes(); s++ {
		for k := 0; k < 8; k++ {
			n.NI(NodeID(s)).Inject(&Packet{Dst: 0, VNet: VNetResponse, Size: DataFlits})
			total++
		}
	}
	run(eng, n, 100000)
	if len(got[0]) != total {
		t.Fatalf("hotspot received %d/%d packets", len(got[0]), total)
	}
}

func TestPacketOrderingSameVNetSameFlow(t *testing.T) {
	// Two packets on the same vnet between the same pair must arrive in
	// injection order (XY routing is deterministic; single path).
	cfg := DefaultConfig()
	eng, n, got := testNet(t, cfg)
	for i := 0; i < 10; i++ {
		n.NI(3).Inject(&Packet{Dst: 42, VNet: VNetRequest, Size: 1, Addr: uint64(i)})
	}
	run(eng, n, 5000)
	if len(got[42]) != 10 {
		t.Fatalf("got %d packets, want 10", len(got[42]))
	}
	for i, p := range got[42] {
		if p.Addr != uint64(i) {
			t.Fatalf("packet %d has addr %d: reordered", i, p.Addr)
		}
	}
}

func TestInterceptorConsume(t *testing.T) {
	cfg := DefaultConfig()
	eng, n, got := testNet(t, cfg)
	var seen []*Packet
	// Node (1,0)=1 sits on the XY path from 0 to 7.
	n.Router(1).SetInterceptor(interceptFunc(func(_ sim.Cycle, _ *Router, p *Packet) (bool, *Packet) {
		seen = append(seen, p)
		return true, nil
	}))
	n.NI(0).Inject(&Packet{Dst: 7, VNet: VNetRequest, Size: 1, LockReq: true})
	run(eng, n, 1000)
	if len(seen) != 1 {
		t.Fatalf("interceptor saw %d packets, want 1", len(seen))
	}
	if len(got[7]) != 0 {
		t.Fatal("consumed packet must not be delivered")
	}
	if n.InFlight() != 0 {
		t.Fatalf("in flight = %d after consumption, want 0", n.InFlight())
	}
}

func TestInterceptorGenerate(t *testing.T) {
	cfg := DefaultConfig()
	eng, n, got := testNet(t, cfg)
	n.Router(1).SetInterceptor(interceptFunc(func(_ sim.Cycle, r *Router, p *Packet) (bool, *Packet) {
		if p.LockReq {
			return false, &Packet{Dst: 32, VNet: VNetForward, Size: 1}
		}
		return false, nil
	}))
	n.NI(0).Inject(&Packet{Dst: 7, VNet: VNetRequest, Size: 1, LockReq: true})
	run(eng, n, 1000)
	if len(got[7]) != 1 {
		t.Fatal("original packet must still be delivered")
	}
	if len(got[32]) != 1 {
		t.Fatal("generated packet must be delivered")
	}
	if got[32][0].Src != 1 {
		t.Fatalf("generated packet Src = %d, want 1 (the generating router)", got[32][0].Src)
	}
}

func TestInterceptorSkipsMultiFlit(t *testing.T) {
	cfg := DefaultConfig()
	eng, n, _ := testNet(t, cfg)
	calls := 0
	n.Router(1).SetInterceptor(interceptFunc(func(_ sim.Cycle, _ *Router, _ *Packet) (bool, *Packet) {
		calls++
		return false, nil
	}))
	n.NI(0).Inject(&Packet{Dst: 7, VNet: VNetResponse, Size: DataFlits})
	run(eng, n, 1000)
	if calls != 0 {
		t.Fatalf("interceptor called %d times for a data packet, want 0", calls)
	}
}

func TestPriorityArbitrationFavorsHighPriority(t *testing.T) {
	// Saturate one output link with low-priority traffic, then inject one
	// high-priority packet; under priority arbitration its latency must be
	// lower than the mean of the low-priority packets injected at the same
	// time from the competing port.
	mk := func(priorityArb bool) (hi sim.Cycle, lo float64) {
		cfg := Config{Mesh: Mesh{Width: 8, Height: 1}, VCsPerPort: 6, VCDepth: 2, PriorityArb: priorityArb}
		eng := sim.NewEngine(3)
		n, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var hiPkt *Packet
		var loSum, loN float64
		for id := 0; id < cfg.Mesh.Nodes(); id++ {
			n.NI(NodeID(id)).SetSink(SinkFunc(func(_ sim.Cycle, p *Packet) {
				if p.Priority > 0 {
					hiPkt = p
				} else if p.Size == 1 {
					loSum += float64(p.DeliveredAt - p.InjectedAt)
					loN++
				}
			}))
		}
		for k := 0; k < 30; k++ {
			n.NI(0).Inject(&Packet{Dst: 7, VNet: VNetRequest, Size: 1})
		}
		hp := &Packet{Dst: 7, VNet: VNetRequest, Size: 1, Priority: 8}
		n.NI(1).Inject(hp)
		for k := 0; k < 30; k++ {
			n.NI(1).Inject(&Packet{Dst: 7, VNet: VNetRequest, Size: 1})
		}
		run(eng, n, 10000)
		if hiPkt == nil || loN == 0 {
			t.Fatal("packets not delivered")
		}
		return hiPkt.DeliveredAt - hiPkt.InjectedAt, loSum / loN
	}
	hiLat, loMean := mk(true)
	if float64(hiLat) >= loMean {
		t.Fatalf("priority arb: high-priority latency %d not better than low mean %.1f", hiLat, loMean)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	bad := []Config{
		{Mesh: Mesh{Width: 4, Height: 4}, VCsPerPort: 5, VCDepth: 4},
		{Mesh: Mesh{Width: 4, Height: 4}, VCsPerPort: 6, VCDepth: 0},
		{Mesh: Mesh{Width: 0, Height: 4}, VCsPerPort: 6, VCDepth: 4},
	}
	for i, cfg := range bad {
		if _, err := New(eng, cfg); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

// interceptFunc adapts a function to Interceptor for tests.
type interceptFunc func(now sim.Cycle, r *Router, p *Packet) (bool, *Packet)

func (f interceptFunc) Intercept(now sim.Cycle, r *Router, p *Packet) (bool, *Packet) {
	return f(now, r, p)
}
