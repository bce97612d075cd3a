package coherence

import (
	"fmt"

	"inpg/internal/cache"
	"inpg/internal/memory"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

// Fabric assembles the coherent memory system: one L1 controller and one
// directory/L2-bank controller per mesh node, a memory-controller system,
// and the per-node sink demux that routes delivered packets to the right
// controller. It is the substrate the CPU/lock layers and the iNPG big
// routers plug into.
type Fabric struct {
	Eng   *sim.Engine
	Net   *noc.Network
	Homes HomeMap
	L1s   []*L1
	Dirs  []*Dir
	Mem   *memory.System
	// Msgs is the free list every controller and big router on this
	// fabric takes its protocol messages from.
	Msgs MsgPool
}

// FabricConfig collects the per-component configurations.
type FabricConfig struct {
	Net noc.Config
	L1  L1Config
	Dir DirConfig
	Mem memory.Config
}

// DefaultFabricConfig returns the paper's Table 1 platform.
func DefaultFabricConfig() FabricConfig {
	return FabricConfig{
		Net: noc.DefaultConfig(),
		L1:  DefaultL1Config(),
		Dir: DefaultDirConfig(),
		Mem: memory.DefaultConfig(),
	}
}

// NewFabric builds and wires the full memory system onto eng. The L1s,
// directories and sink demuxes live in three fabric-wide slabs, one
// entry per node.
func NewFabric(eng *sim.Engine, cfg FabricConfig) (*Fabric, error) {
	net, err := noc.New(eng, cfg.Net)
	if err != nil {
		return nil, err
	}
	nodes := cfg.Net.Mesh.Nodes()
	mem, err := memory.NewSystem(eng, cfg.Mem, cfg.L1.Cache.BlockBytes)
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		Eng:   eng,
		Net:   net,
		Homes: HomeMap{Nodes: nodes, BlockBytes: cfg.L1.Cache.BlockBytes},
		Mem:   mem,
		Msgs:  MsgPool{eng: eng},
	}
	l1s := make([]L1, nodes)
	dirs := make([]Dir, nodes)
	sinks := make([]demux, nodes)
	f.L1s = make([]*L1, nodes)
	f.Dirs = make([]*Dir, nodes)
	for id := 0; id < nodes; id++ {
		node := noc.NodeID(id)
		ni := net.NI(node)
		if l1s[id], err = makeL1(eng, node, ni, f.Homes, &f.Msgs, cfg.L1); err != nil {
			return nil, err
		}
		dirs[id] = makeDir(eng, node, ni, mem, &f.Msgs, cfg.Dir, nodes)
		f.L1s[id], f.Dirs[id] = &l1s[id], &dirs[id]
		sinks[id] = demux{eng, &l1s[id], &dirs[id]}
		ni.SetSink(&sinks[id])
	}
	return f, nil
}

// demux routes delivered coherence packets to the L1 or the directory.
type demux struct {
	eng *sim.Engine
	l1  *L1
	dir *Dir
}

// Receive implements noc.Sink.
func (d *demux) Receive(now sim.Cycle, p *noc.Packet) {
	m, ok := p.Payload.(*Message)
	if !ok {
		d.eng.Fail(&ProtocolError{Node: int(d.l1.Node), Component: "sink",
			Detail: fmt.Sprintf("non-protocol packet %v delivered", p)})
		return
	}
	if m.ToDir {
		d.dir.Receive(now, m)
	} else {
		d.l1.Receive(now, m)
	}
}

// SetRTTRecorder installs the invalidation round-trip sampler on every
// directory.
func (f *Fabric) SetRTTRecorder(r RTTRecorder) {
	for _, d := range f.Dirs {
		d.SetRTTRecorder(r)
	}
}

// CheckInvariants validates single-writer/value coherence across all L1s
// for the given addresses, returning a descriptive error on violation.
// Lines mid-transaction at a busy home are skipped: transient states may
// legitimately disagree until the transaction completes.
func (f *Fabric) CheckInvariants(addrs []uint64) error {
	for _, addr := range addrs {
		home := f.Dirs[f.Homes.Home(addr)]
		_, _, _, busy := home.LineInfo(addr)
		if busy {
			continue
		}
		owners := 0
		var ownerVal uint64
		var shared []*cache.Line
		for _, l1 := range f.L1s {
			ln := l1.Cache().Peek(addr)
			if ln == nil {
				continue
			}
			switch ln.State {
			case cache.Modified, cache.Exclusive, cache.Owned:
				owners++
				ownerVal = ln.Data
			case cache.Shared:
				shared = append(shared, ln)
			}
		}
		if owners > 1 {
			return fmt.Errorf("addr %#x: %d owners", addr, owners)
		}
		if owners == 1 {
			for _, s := range shared {
				if s.Data != ownerVal {
					return fmt.Errorf("addr %#x: shared copy %d != owner value %d", addr, s.Data, ownerVal)
				}
			}
		}
	}
	return nil
}

// Quiesce runs the engine until the network drains and no directory
// transaction is outstanding, up to maxCycles.
func (f *Fabric) Quiesce(maxCycles sim.Cycle) error {
	_, err := f.Eng.Run(maxCycles, func() bool { return f.Net.InFlight() == 0 })
	return err
}

// Settle runs until both the network and the engine's event queue are
// empty — including controller pipeline stages (directory handling is
// scheduled behind the bank latency) and the responses they trigger. It is
// only meaningful when no threads are running (protocol-level tests).
func (f *Fabric) Settle(maxCycles sim.Cycle) error {
	_, err := f.Eng.Run(maxCycles, func() bool {
		return f.Net.InFlight() == 0 && f.Eng.PendingEvents() == 0
	})
	return err
}
