// Package noc implements the on-chip network of the target many-core: a 2D
// mesh of wormhole-switched, virtual-channel, credit-flow-controlled routers
// with XY dimension-order routing, plus the network interfaces (NIs) that
// inject and eject whole packets on behalf of the per-node cache and
// directory controllers.
//
// The router models the paper's baseline: a 2-stage pipelined speculative
// router (Peh & Dally, HPCA'01) where route computation, VC allocation and
// switch allocation happen in the first stage and switch traversal in the
// second. In this simulator that pipeline is realized as a minimum
// per-hop latency of two cycles (one cycle buffered at the input, one cycle
// of switch+link traversal) with full 1-flit/cycle streaming throughput.
//
// Big routers (package bigrouter) attach to the router's Interceptor hook to
// observe, stop, convert and generate packets in-network, exactly at the
// point where a head flit enters an input virtual channel.
package noc

import "fmt"

// NodeID identifies a mesh node (router + NI + attached controllers).
// IDs are assigned in row-major order: id = y*Width + x.
type NodeID int

// Port is a router port. Local connects the router to its NI; the four
// cardinal ports connect to mesh neighbours.
type Port int

// Router ports in arbitration order.
const (
	Local Port = iota
	North      // -y
	East       // +x
	South      // +y
	West       // -x
	NumPorts
)

// String returns a short human-readable port name.
func (p Port) String() string {
	switch p {
	case Local:
		return "L"
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	}
	return fmt.Sprintf("Port(%d)", int(p))
}

// opposite returns the port on the neighbouring router that faces p.
func (p Port) opposite() Port {
	switch p {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return Local
}

// Mesh describes a Width×Height 2D mesh topology.
type Mesh struct {
	Width, Height int
}

// Nodes returns the number of nodes in the mesh.
func (m Mesh) Nodes() int { return m.Width * m.Height }

// Coord returns the (x, y) coordinate of id.
func (m Mesh) Coord(id NodeID) (x, y int) {
	return int(id) % m.Width, int(id) / m.Width
}

// coord is a node's (x, y) mesh coordinate, as Coord returns it.
type coord struct{ x, y int32 }

// ID returns the node at coordinate (x, y).
func (m Mesh) ID(x, y int) NodeID { return NodeID(y*m.Width + x) }

// Contains reports whether id is a valid node of the mesh.
func (m Mesh) Contains(id NodeID) bool {
	return id >= 0 && int(id) < m.Nodes()
}

// Distance returns the Manhattan distance between two nodes, which equals
// the XY-routing hop count.
func (m Mesh) Distance(a, b NodeID) int {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// RouteXY returns the output port taken at node cur by a packet destined to
// dst under XY dimension-order routing: correct X first, then Y, then eject.
func (m Mesh) RouteXY(cur, dst NodeID) Port {
	cx, cy := m.Coord(cur)
	dx, dy := m.Coord(dst)
	switch {
	case dx > cx:
		return East
	case dx < cx:
		return West
	case dy > cy:
		return South
	case dy < cy:
		return North
	default:
		return Local
	}
}

// PathXY returns the sequence of nodes visited from src to dst (inclusive of
// both endpoints) under XY routing. It is used by tests and by big-router
// deployment analysis.
func (m Mesh) PathXY(src, dst NodeID) []NodeID {
	path := []NodeID{src}
	cur := src
	for cur != dst {
		p := m.RouteXY(cur, dst)
		cur = m.neighbor(cur, p)
		path = append(path, cur)
	}
	return path
}

// neighbor returns the node adjacent to id through port p. The caller must
// ensure the neighbour exists.
func (m Mesh) neighbor(id NodeID, p Port) NodeID {
	x, y := m.Coord(id)
	switch p {
	case North:
		y--
	case South:
		y++
	case East:
		x++
	case West:
		x--
	}
	return m.ID(x, y)
}

// hasNeighbor reports whether id has a mesh neighbour through port p.
func (m Mesh) hasNeighbor(id NodeID, p Port) bool {
	x, y := m.Coord(id)
	switch p {
	case North:
		return y > 0
	case South:
		return y < m.Height-1
	case East:
		return x < m.Width-1
	case West:
		return x > 0
	}
	return false
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
