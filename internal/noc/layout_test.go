package noc

import (
	"reflect"
	"testing"
	"unsafe"

	"inpg/internal/fault"
	"inpg/internal/sim"
)

// pointerField returns the path to the first pointer-bearing field of t,
// or "" when t holds no Go pointers. Strings, slices, maps, interfaces,
// funcs and chans all carry pointers the garbage collector must scan.
func pointerField(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return t.Kind().String()
	case reflect.Array:
		if p := pointerField(t.Elem()); p != "" {
			return "[]" + p
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerField(f.Type); p != "" {
				return f.Name + ": " + p
			}
		}
	}
	return ""
}

// TestSlabTypesHoldNoPointers guards the compact router layout: the types
// stored per VC slot, per flit and per link arrival must stay pointer-free
// so the slabs are never scanned by the garbage collector, the flit, VC
// and arrival records must keep their sizes, and the occupancy mask must
// stay a fixed array of words.
func TestSlabTypesHoldNoPointers(t *testing.T) {
	for _, v := range []any{flit{}, inputVC{}, outputVC{}, linkRetry{}, arrival{}, injection{}} {
		typ := reflect.TypeOf(v)
		if p := pointerField(typ); p != "" {
			t.Errorf("%s holds a pointer-bearing field: %s", typ.Name(), p)
		}
	}
	if s := unsafe.Sizeof(flit{}); s != 16 {
		t.Errorf("flit is %d bytes, want 16", s)
	}
	if s := unsafe.Sizeof(inputVC{}); s > 16 {
		t.Errorf("inputVC is %d bytes, want at most 16", s)
	}
	if s := unsafe.Sizeof(outputVC{}); s > 16 {
		t.Errorf("outputVC is %d bytes, want at most 16", s)
	}
	if typ := reflect.TypeOf(Router{}.occ); typ.Kind() != reflect.Array || typ.Elem().Kind() != reflect.Uint64 {
		t.Errorf("Router.occ is a %s, want an array of uint64 words", typ)
	}
	if s := unsafe.Sizeof(arrival{}); s > 12 {
		t.Errorf("arrival is %d bytes, want at most 12", s)
	}
}

// TestRouterRouteMatchesRouteXY checks the division-free router route
// against Mesh.RouteXY, the reference, for every (router, destination)
// pair on a square and a non-square mesh.
func TestRouterRouteMatchesRouteXY(t *testing.T) {
	for _, m := range []Mesh{{Width: 8, Height: 8}, {Width: 5, Height: 3}} {
		n, err := New(sim.NewEngine(1), Config{Mesh: m, VCsPerPort: 6, VCDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		for cur := NodeID(0); int(cur) < m.Nodes(); cur++ {
			for dst := NodeID(0); int(dst) < m.Nodes(); dst++ {
				if got, want := n.Router(cur).route(dst), m.RouteXY(cur, dst); got != want {
					t.Fatalf("%dx%d mesh: route %d->%d = %v, RouteXY = %v", m.Width, m.Height, cur, dst, got, want)
				}
			}
		}
	}
}

// TestCompactLimitsRejected checks that New rejects configurations the
// compact slot ids and VC rings cannot represent.
func TestCompactLimitsRejected(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, cfg := range []Config{
		{Mesh: Mesh{Width: 2, Height: 2}, VCsPerPort: 54, VCDepth: 4},
		{Mesh: Mesh{Width: 2, Height: 2}, VCsPerPort: 6, VCDepth: 1 << 16},
	} {
		if _, err := New(eng, cfg); err == nil {
			t.Fatalf("config VCsPerPort=%d VCDepth=%d should be rejected", cfg.VCsPerPort, cfg.VCDepth)
		}
	}
	if _, err := New(eng, Config{Mesh: Mesh{Width: 2, Height: 2}, VCsPerPort: 51, VCDepth: 4}); err != nil {
		t.Fatalf("51 VCs per port (255 slots) rejected: %v", err)
	}
}

// TestBuffersBuiltPerChunkOnFirstUse drives traffic among routers 0–63 of
// a 16×16 mesh, its first four rows, which XY routing never leaves. New
// builds no router buffers; the traffic builds exactly the first chunk,
// with link-retry state on a faulted network and without it otherwise.
// Diagnostics and InFlight read the unbuilt routers as empty before,
// during and after the traffic.
func TestBuffersBuiltPerChunkOnFirstUse(t *testing.T) {
	for _, faults := range []bool{false, true} {
		cfg := Config{Mesh: Mesh{Width: 16, Height: 16}, VCsPerPort: 6, VCDepth: 4}
		if faults {
			cfg.Fault = fault.AtRate(0.02, 5)
		}
		eng, n, got := testNet(t, cfg)
		built := func() (routers, retry int) {
			for i := range n.routers {
				r := &n.routers[i]
				if r.vcs == nil {
					if r.out != nil || r.flits != nil || r.retry != nil {
						t.Fatalf("faults=%t: router %d has windows but no input VCs", faults, i)
					}
					continue
				}
				if i >= chunkRouters {
					t.Fatalf("faults=%t: router %d outside the traffic's chunk was built", faults, i)
				}
				routers++
				if r.retry != nil {
					retry++
				}
			}
			return routers, retry
		}
		if r, _ := built(); r != 0 {
			t.Fatalf("faults=%t: New built %d routers' buffers, want none", faults, r)
		}
		if d := n.Diagnostics(0); d.InFlight != 0 || len(d.VCs) != 0 || len(d.NIs) != 0 {
			t.Fatalf("faults=%t: fresh network diagnosed %+v", faults, d)
		}

		const packets = chunkRouters
		for s := 0; s < packets; s++ {
			p := &Packet{Dst: NodeID((s*7 + 5) % chunkRouters), VNet: VNet(s % int(NumVNets)), Size: 1}
			if p.VNet == VNetResponse {
				p.Size = 8
			}
			n.NI(NodeID(s)).Inject(p)
		}
		for eng.Now() < 20 {
			eng.Step()
		}
		d := n.Diagnostics(eng.Now())
		if d.InFlight != n.InFlight() || d.InFlight == 0 || len(d.VCs) == 0 {
			t.Fatalf("faults=%t: mid-run diagnosis has %d in flight and %d VCs, want %d in flight and occupied VCs",
				faults, d.InFlight, len(d.VCs), n.InFlight())
		}
		for _, vc := range d.VCs {
			if vc.Node >= chunkRouters {
				t.Fatalf("faults=%t: diagnosed an occupied VC at router %d", faults, vc.Node)
			}
		}

		run(eng, n, 100_000)
		delivered := 0
		for _, g := range got {
			delivered += len(g)
		}
		if delivered != packets || n.InFlight() != 0 {
			t.Fatalf("faults=%t: delivered %d of %d packets, %d in flight", faults, delivered, packets, n.InFlight())
		}
		routers, retry := built()
		if routers != chunkRouters {
			t.Fatalf("faults=%t: %d routers built, want the first chunk's %d", faults, routers, chunkRouters)
		}
		want := 0
		if faults {
			want = chunkRouters
		}
		if retry != want {
			t.Fatalf("faults=%t: %d built routers have link-retry state, want %d", faults, retry, want)
		}
		if d := n.Diagnostics(eng.Now()); d.InFlight != 0 || len(d.VCs) != 0 || len(d.NIs) != 0 {
			t.Fatalf("faults=%t: drained network diagnosed %+v", faults, d)
		}
	}
}
