package bigrouter

import (
	"testing"

	"inpg/internal/coherence"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

func testGen(cfg Config) *Gen {
	eng := sim.NewEngine(1)
	homes := coherence.HomeMap{Nodes: 16, BlockBytes: 128}
	return New(eng, 5, homes, cfg)
}

// lockGetX builds a swap GetX packet from node src for addr.
func lockGetX(src noc.NodeID, addr uint64) (*noc.Packet, *coherence.Message) {
	m := &coherence.Message{
		Type: coherence.MsgGetX, Addr: addr, Requestor: src,
		LockAddr: true, IsSwap: true, Operand: 1, ToDir: true,
	}
	p := &noc.Packet{Dst: 3, VNet: noc.VNetRequest, Size: 1, LockReq: true, Addr: addr, Payload: m}
	return p, m
}

func TestFirstGetXCreatesBarrierAndPasses(t *testing.T) {
	g := testGen(DefaultConfig())
	p, m := lockGetX(7, 0x1000)
	consume, gen := g.Intercept(10, nil, p)
	if consume || gen != nil {
		t.Fatal("first lock GetX must pass untouched")
	}
	if m.Type != coherence.MsgGetX {
		t.Fatal("first GetX must not be converted")
	}
	if g.Barriers(10) != 1 {
		t.Fatalf("barriers = %d, want 1", g.Barriers(10))
	}
}

func TestSecondGetXIsStoppedAndConverted(t *testing.T) {
	g := testGen(DefaultConfig())
	p1, _ := lockGetX(7, 0x1000)
	g.Intercept(10, nil, p1)
	p2, m2 := lockGetX(9, 0x1000)
	consume, gen := g.Intercept(12, nil, p2)
	if consume {
		t.Fatal("stopped GetX is converted, not consumed")
	}
	if m2.Type != coherence.MsgFwdGetX || !m2.EarlyInv || !m2.ToDir {
		t.Fatalf("conversion wrong: %+v", m2)
	}
	if p2.LockReq {
		t.Fatal("converted packet must not be stoppable again")
	}
	if gen == nil {
		t.Fatal("no early Inv generated")
	}
	inv := gen.Payload.(*coherence.Message)
	if inv.Type != coherence.MsgInv || !inv.EarlyInv || inv.AckTo != 5 {
		t.Fatalf("early Inv wrong: %+v", inv)
	}
	if gen.Dst != 9 {
		t.Fatalf("early Inv sent to %d, want issuer 9", gen.Dst)
	}
	if g.Stats.GetXStopped != 1 || g.Stats.EarlyInvsSent != 1 {
		t.Fatalf("stats wrong: %+v", g.Stats)
	}
}

func TestDistinctLocksGetDistinctBarriers(t *testing.T) {
	g := testGen(DefaultConfig())
	pa, _ := lockGetX(1, 0x1000)
	pb, mb := lockGetX(2, 0x2000)
	g.Intercept(10, nil, pa)
	g.Intercept(10, nil, pb)
	if g.Barriers(10) != 2 {
		t.Fatalf("barriers = %d, want 2", g.Barriers(10))
	}
	if mb.Type != coherence.MsgGetX {
		t.Fatal("first GetX of second lock must pass")
	}
}

func TestBarrierTTLExpiry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TTL = 100
	g := testGen(cfg)
	p, _ := lockGetX(1, 0x1000)
	g.Intercept(10, nil, p)
	if g.Barriers(50) != 1 {
		t.Fatal("barrier should survive before TTL")
	}
	if g.Barriers(111) != 0 {
		t.Fatal("barrier should expire after TTL with no EI entries")
	}
	if g.Stats.BarriersExpired != 1 {
		t.Fatalf("expired = %d, want 1", g.Stats.BarriersExpired)
	}
}

func TestTTLFrozenWhileEIEntriesLive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TTL = 100
	g := testGen(cfg)
	p1, _ := lockGetX(1, 0x1000)
	g.Intercept(10, nil, p1)
	p2, _ := lockGetX(2, 0x1000)
	g.Intercept(20, nil, p2) // stopped: live EI entry
	if g.Barriers(500) != 1 {
		t.Fatal("barrier with live EI entry must not expire")
	}
	// The InvAck for the early Inv frees the entry and restarts the TTL.
	ack := &coherence.Message{Type: coherence.MsgInvAck, Addr: 0x1000, AckFor: 2, EarlyInv: true}
	ap := &noc.Packet{Dst: 5, VNet: noc.VNetResponse, Size: 1, Addr: 0x1000, Payload: ack}
	consume, gen := g.Intercept(600, nil, ap)
	if !consume {
		t.Fatal("early InvAck addressed to the big router must be consumed")
	}
	if gen == nil || gen.Payload.(*coherence.Message).Type != coherence.MsgInvAck {
		t.Fatal("consumed ack must be relayed to the home")
	}
	relayed := gen.Payload.(*coherence.Message)
	if !relayed.ToDir || !relayed.EarlyInv || relayed.AckFor != 2 || relayed.From != 5 {
		t.Fatalf("relayed ack wrong: %+v", relayed)
	}
	if gen.Dst != 0 { // home of 0x1000 = (0x1000/128)%16 = 32%16 = 0
		t.Fatalf("relayed to %d, want home 0", gen.Dst)
	}
	if g.Barriers(600) != 1 {
		t.Fatal("TTL restarts at ack; barrier still alive immediately")
	}
	if g.Barriers(701) != 0 {
		t.Fatal("barrier should expire TTL cycles after last EI freed")
	}
}

func TestRelayedAcksNotInterceptedAtHomeBigRouter(t *testing.T) {
	g := testGen(DefaultConfig())
	// An already-relayed ack (ToDir) addressed to this node's directory
	// must pass through even though Dst matches the router.
	ack := &coherence.Message{Type: coherence.MsgInvAck, Addr: 0x1000, AckFor: 2, EarlyInv: true, ToDir: true}
	ap := &noc.Packet{Dst: 5, VNet: noc.VNetResponse, Size: 1, Addr: 0x1000, Payload: ack}
	consume, gen := g.Intercept(10, nil, ap)
	if consume || gen != nil {
		t.Fatal("relayed ack bound for the directory must pass through")
	}
}

func TestBarrierTableCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Barriers = 2
	g := testGen(cfg)
	for i, addr := range []uint64{0x1000, 0x2000, 0x3000} {
		p, m := lockGetX(noc.NodeID(i), addr)
		g.Intercept(10, nil, p)
		if addr == 0x3000 && m.Type != coherence.MsgGetX {
			t.Fatal("GetX must pass when the barrier table is full")
		}
	}
	if g.Barriers(10) != 2 {
		t.Fatalf("barriers = %d, want capacity 2", g.Barriers(10))
	}
	if g.Stats.TableFullPasses != 1 {
		t.Fatalf("full passes = %d, want 1", g.Stats.TableFullPasses)
	}
}

func TestEIEntryCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EIEntries = 2
	g := testGen(cfg)
	p0, _ := lockGetX(0, 0x1000)
	g.Intercept(10, nil, p0)
	stopped := 0
	for i := 1; i <= 3; i++ {
		p, m := lockGetX(noc.NodeID(i), 0x1000)
		g.Intercept(10, nil, p)
		if m.Type == coherence.MsgFwdGetX {
			stopped++
		}
	}
	if stopped != 2 {
		t.Fatalf("stopped %d, want 2 (EI capacity)", stopped)
	}
}

func TestNonLockTrafficIgnored(t *testing.T) {
	g := testGen(DefaultConfig())
	m := &coherence.Message{Type: coherence.MsgGetS, Addr: 0x1000, Requestor: 1, ToDir: true}
	p := &noc.Packet{Dst: 3, VNet: noc.VNetRequest, Size: 1, Addr: 0x1000, Payload: m}
	consume, gen := g.Intercept(10, nil, p)
	if consume || gen != nil || g.Barriers(10) != 0 {
		t.Fatal("GetS must be ignored by the barrier table")
	}
}

func TestDeploymentCheckerboard(t *testing.T) {
	m := noc.Mesh{Width: 8, Height: 8}
	nodes := Deployment(m, 32)
	if len(nodes) != 32 {
		t.Fatalf("deployed %d, want 32", len(nodes))
	}
	for _, id := range nodes {
		x, y := m.Coord(id)
		if (x+y)%2 != 1 {
			t.Fatalf("node %d (%d,%d) breaks the checkerboard", id, x, y)
		}
	}
}

func TestDeploymentCounts(t *testing.T) {
	m := noc.Mesh{Width: 8, Height: 8}
	for _, n := range []int{0, 4, 16, 64, 100} {
		got := Deployment(m, n)
		want := n
		if n > 64 {
			want = 64
		}
		if len(got) != want {
			t.Fatalf("Deployment(%d) = %d nodes, want %d", n, len(got), want)
		}
		seen := map[noc.NodeID]bool{}
		for _, id := range got {
			if seen[id] || !m.Contains(id) {
				t.Fatalf("Deployment(%d) invalid node set", n)
			}
			seen[id] = true
		}
	}
}

// TestGeneratedPacketWakesSleepingNetwork deploys a generator on a real
// mesh under activity-driven scheduling: once the idle network has gone
// fully to sleep, a stopped GetX must still trigger an early Inv whose
// injection wakes the big router's NI and every router on the path, and
// the mesh must return to sleep after draining.
func TestGeneratedPacketWakesSleepingNetwork(t *testing.T) {
	eng := sim.NewEngine(1)
	n, err := noc.New(eng, noc.Config{Mesh: noc.Mesh{Width: 4, Height: 4}, VCsPerPort: 6, VCDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TTL = 10_000 // keep the barrier alive across the idle gap
	g := New(eng, 2, coherence.HomeMap{Nodes: 16, BlockBytes: 128}, cfg)
	n.Router(2).SetInterceptor(g)

	gotInv := false
	n.NI(1).SetSink(noc.SinkFunc(func(now sim.Cycle, p *noc.Packet) {
		m, ok := p.Payload.(*coherence.Message)
		if ok && m.Type == coherence.MsgInv && m.EarlyInv {
			gotInv = true
		}
	}))

	// With no traffic every router and NI sleeps within a few cycles.
	for i := 0; i < 5; i++ {
		eng.Step()
	}
	if eng.ActiveTickers() != 0 {
		t.Fatalf("%d tickers still awake on an idle mesh", eng.ActiveTickers())
	}

	// Two lock GetX requests for the same line, both routed 0/1 → 3
	// through the big router at node 2. The first opens a barrier; the
	// second is stopped there and generates the early Inv back to its
	// issuer, node 1.
	eng.Schedule(20, func() {
		p, _ := lockGetX(0, 0x1000)
		n.NI(0).Inject(p)
	})
	eng.Schedule(80, func() {
		p, _ := lockGetX(1, 0x1000)
		n.NI(1).Inject(p)
	})
	if _, err := eng.Run(1000, func() bool { return gotInv }); err != nil {
		t.Fatalf("early Inv never delivered: %v", err)
	}
	if g.Stats.GetXStopped != 1 || g.Stats.EarlyInvsSent != 1 {
		t.Fatalf("generator stats wrong: %+v", g.Stats)
	}

	// Drain the converted FwdGetX and verify the mesh sleeps again.
	if _, err := eng.Run(1000, func() bool { return n.InFlight() == 0 }); err != nil {
		t.Fatalf("network failed to drain: %v", err)
	}
	for i := 0; i < 5; i++ {
		eng.Step()
	}
	if eng.ActiveTickers() != 0 {
		t.Fatalf("%d tickers still awake after drain", eng.ActiveTickers())
	}
}

// TestBarrierRoundAllocatesNothing runs the iNPG cycle on a live 8×8
// fabric, all of it through the big router on node 1: node 1's lock GetX
// opens a barrier there, node 0's is stopped, whose early Inv and relayed
// InvAck travel in pooled packets carrying pooled messages, and the
// barrier expires after the release. After warm-up a whole round —
// barrier creation, stop, relay, release and expiry — allocates nothing.
func TestBarrierRoundAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	f, err := coherence.NewFabric(eng, coherence.DefaultFabricConfig())
	if err != nil {
		t.Fatal(err)
	}
	var g *Gen
	for _, x := range Attach(f, DefaultConfig(), Deployment(f.Net.Mesh(), 32)) {
		if x.Node == 1 {
			g = x
		}
	}
	addr := f.Homes.AddrForHome(63, 0)
	swapped := func(uint64) {}
	released := func() {}
	settle := func() {
		if err := f.Settle(100_000); err != nil {
			t.Fatal(err)
		}
	}
	idle := false
	wake := func() { idle = true }
	idled := func() bool { return idle }
	round := func() {
		f.L1s[1].Atomic(addr, coherence.Swap, 1, 0, 0, swapped) // opens the barrier, wins
		settle()
		f.L1s[0].Atomic(addr, coherence.Swap, 1, 0, 0, swapped) // stopped at node 1
		settle()
		f.L1s[1].StoreRelease(addr, 0, true, 0, released)
		settle()
		// Idle past the barrier's TTL.
		idle = false
		eng.Schedule(2*DefaultConfig().TTL, wake)
		if _, err := eng.Run(100_000, idled); err != nil {
			t.Fatal(err)
		}
	}
	round()
	before := g.Stats
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("barrier round: %.1f allocations, want 0", n)
	}
	after := g.Stats
	for _, c := range []struct {
		name          string
		before, after uint64
	}{
		{"barriers created", before.BarriersCreated, after.BarriersCreated},
		{"barriers expired", before.BarriersExpired, after.BarriersExpired},
		{"GetX stopped", before.GetXStopped, after.GetXStopped},
		{"acks relayed", before.AcksRelayed, after.AcksRelayed},
	} {
		if c.after-c.before != 21 {
			t.Fatalf("%s: %d over 21 rounds, want one per round (stats %+v)", c.name, c.after-c.before, after)
		}
	}
}

// TestNewAllocatesOnlyItself pins the first-write barrier table: it is
// made when the first barrier opens, so building a generator costs its
// struct alone.
func TestNewAllocatesOnlyItself(t *testing.T) {
	eng := sim.NewEngine(1)
	homes := coherence.HomeMap{Nodes: 16, BlockBytes: 128}
	var g *Gen
	if n := testing.AllocsPerRun(20, func() { g = New(eng, 5, homes, DefaultConfig()) }); n != 1 {
		t.Fatalf("New made %.1f allocations, want 1", n)
	}
	if g.barriers != nil {
		t.Fatal("New made the barrier table")
	}
}
