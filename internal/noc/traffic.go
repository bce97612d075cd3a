package noc

import (
	"fmt"
	"strings"

	"inpg/internal/sim"
)

// Synthetic traffic generation: the standard patterns used to validate an
// on-chip network independently of any coherence protocol — uniform
// random, transpose, bit-complement and hotspot — plus a load/latency
// sweep. This is how the router micro-architecture was brought up before
// the protocol layers existed, and it remains the fastest way to detect
// regressions in arbitration, credits or routing.

// Pattern selects a destination for each source node.
type Pattern int

// Classic synthetic patterns.
const (
	// UniformRandom sends each packet to a uniformly chosen node.
	UniformRandom Pattern = iota
	// Transpose sends (x, y) → (y, x): heavy diagonal pressure under XY.
	Transpose
	// BitComplement sends node i → N-1-i.
	BitComplement
	// Hotspot sends everything to node 0.
	Hotspot
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case UniformRandom:
		return "uniform"
	case Transpose:
		return "transpose"
	case BitComplement:
		return "bit-complement"
	case Hotspot:
		return "hotspot"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// TrafficConfig drives a synthetic run.
type TrafficConfig struct {
	Pattern Pattern
	// InjectionRate is packets per node per cycle (0 < rate ≤ 1).
	InjectionRate float64
	// PacketFlits sizes each packet.
	PacketFlits int
	// WarmupCycles are excluded from latency statistics.
	WarmupCycles sim.Cycle
	// MeasureCycles is the measured window; injection stops after it.
	MeasureCycles sim.Cycle
	Seed          int64
}

// TrafficResult summarizes a synthetic run.
type TrafficResult struct {
	Injected      uint64
	Delivered     uint64
	MeanLatency   float64
	MaxLatency    sim.Cycle
	DrainCycles   sim.Cycle // cycles needed to drain after injection stopped
	ThroughputFPC float64   // delivered flits per cycle over the window
}

// RunTraffic drives the network with synthetic traffic and reports
// latency/throughput. The network must have been freshly built (sinks are
// replaced).
func RunTraffic(eng *sim.Engine, n *Network, cfg TrafficConfig) (*TrafficResult, error) {
	if cfg.InjectionRate <= 0 || cfg.InjectionRate > 1 {
		return nil, fmt.Errorf("noc: injection rate %f out of (0,1]", cfg.InjectionRate)
	}
	if cfg.PacketFlits <= 0 {
		cfg.PacketFlits = 1
	}
	rng := sim.NewRand(cfg.Seed)
	mesh := n.Mesh()
	nodes := mesh.Nodes()

	res := &TrafficResult{}
	var measured uint64
	var latSum uint64
	start := eng.Now()
	measureFrom := start + cfg.WarmupCycles
	stopAt := measureFrom + cfg.MeasureCycles

	for id := 0; id < nodes; id++ {
		n.NI(NodeID(id)).SetSink(SinkFunc(func(now sim.Cycle, p *Packet) {
			res.Delivered++
			if p.InjectedAt >= measureFrom {
				measured++
				lat := p.DeliveredAt - p.InjectedAt
				latSum += uint64(lat)
				if lat > res.MaxLatency {
					res.MaxLatency = lat
				}
			}
		}))
	}

	dest := func(src NodeID) NodeID {
		switch cfg.Pattern {
		case Transpose:
			x, y := mesh.Coord(src)
			if x < mesh.Height && y < mesh.Width {
				return mesh.ID(y%mesh.Width, x%mesh.Height)
			}
			return src
		case BitComplement:
			return NodeID(nodes - 1 - int(src))
		case Hotspot:
			return 0
		default:
			return NodeID(rng.Intn(nodes))
		}
	}

	// Injection process: one Bernoulli trial per node per cycle, run as a
	// self-rescheduling event rather than a busy ticker so the engine's
	// activity-driven scheduler sees a truly idle chip once injection
	// stops. The final firing lands exactly at stopAt, which also keeps
	// the idle fast-forward from overshooting the measurement window.
	var pump func()
	pump = func() {
		now := eng.Now()
		if now >= stopAt {
			return
		}
		for id := 0; id < nodes; id++ {
			if rng.Float64() < cfg.InjectionRate {
				d := dest(NodeID(id))
				if d == NodeID(id) {
					continue
				}
				p := n.NewPacket()
				p.Dst = d
				p.VNet = VNet(rng.Intn(int(NumVNets)))
				p.Size = cfg.PacketFlits
				n.NI(NodeID(id)).Inject(p)
				res.Injected++
			}
		}
		eng.Schedule(0, pump)
	}
	eng.Schedule(0, pump)

	if _, err := eng.Run(stopAt-start+1, func() bool { return eng.Now() >= stopAt }); err != nil {
		return nil, err
	}
	drainStart := eng.Now()
	if _, err := eng.Run(1_000_000, func() bool { return n.InFlight() == 0 }); err != nil {
		return nil, fmt.Errorf("noc: network failed to drain under %s at rate %.3f: %w",
			cfg.Pattern, cfg.InjectionRate, err)
	}
	res.DrainCycles = eng.Now() - drainStart
	if measured > 0 {
		res.MeanLatency = float64(latSum) / float64(measured)
	}
	if cfg.MeasureCycles > 0 {
		res.ThroughputFPC = float64(res.Delivered*uint64(cfg.PacketFlits)) / float64(eng.Now()-start)
	}
	return res, nil
}

// LatencyCurve sweeps injection rates and returns (rate, mean latency)
// pairs — the classic load/latency characterization of a network.
func LatencyCurve(cfg Config, pattern Pattern, rates []float64, seed int64) ([][2]float64, error) {
	var out [][2]float64
	for _, rate := range rates {
		eng := sim.NewEngine(seed)
		n, err := New(eng, cfg)
		if err != nil {
			return nil, err
		}
		res, err := RunTraffic(eng, n, TrafficConfig{
			Pattern:       pattern,
			InjectionRate: rate,
			PacketFlits:   1,
			WarmupCycles:  500,
			MeasureCycles: 2000,
			Seed:          seed,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, [2]float64{rate, res.MeanLatency})
	}
	return out, nil
}

// UtilizationHeatmap renders each router's switching activity as flits per
// cycle over the elapsed window — the quickest way to see where a pattern
// concentrates load (e.g. the hotspot's converging columns).
func UtilizationHeatmap(n *Network, elapsed sim.Cycle) string {
	if elapsed == 0 {
		return ""
	}
	var sb strings.Builder
	m := n.Mesh()
	for y := 0; y < m.Height; y++ {
		for x := 0; x < m.Width; x++ {
			u := float64(n.Router(m.ID(x, y)).Stats.FlitsSwitched) / float64(elapsed)
			fmt.Fprintf(&sb, "%6.2f", u)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
