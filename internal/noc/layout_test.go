package noc

import (
	"reflect"
	"testing"
	"unsafe"

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
