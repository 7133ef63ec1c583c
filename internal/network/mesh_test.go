package network

import "testing"

// Mesh fixtures for the in-package engine tests: side×side meshes with
// dimension-ordered routing, and a deterministic saturating driver. They
// wire the mesh by hand because internal/topology imports this package;
// netbench.BuildMesh builds the same mesh, port for port, through
// topology.Build and routing.Mesh{DimensionOrder: true}. The differential
// check of the engine against an independent model lives in
// refmodel_test.go.

const (
	xyPX = iota
	xyNX
	xyPY
	xyNY
)

// xyTestRouting is dimension-ordered mesh routing (X then Y), the same
// choice routing.Mesh{DimensionOrder: true} makes. Candidates depend only on
// the router and the packet's destination, so it is retry-stable and the
// engine memoizes them.
type xyTestRouting struct {
	side   int
	vcMask uint16
	ports  [][4]int
}

func (x *xyTestRouting) Name() string { return "test-xy" }

func (x *xyTestRouting) Stability() RouteStability { return RouteRetryStable }

func (x *xyTestRouting) Route(_ *Network, r *Router, _ int, pkt *Packet, buf []Candidate) []Candidate {
	cur, dst := int(r.ID), int(pkt.Dst)
	cx, cy := cur%x.side, cur/x.side
	dx, dy := dst%x.side, dst/x.side
	var dir int
	switch {
	case dx > cx:
		dir = xyPX
	case dx < cx:
		dir = xyNX
	case dy > cy:
		dir = xyPY
	default:
		dir = xyNY
	}
	return append(buf, Candidate{Port: x.ports[cur][dir], VCMask: x.vcMask, Escape: true})
}

// buildXYMesh constructs a side×side on-chip mesh with XY routing, the
// same system as netbench.BuildMesh.
func buildXYMesh(tb testing.TB, side int) *Network {
	return buildMesh(tb, side, func(int) LinkKind { return KindOnChip })
}

// buildMixedMesh is buildXYMesh with die-to-die rows: X links stay on-chip
// (Delay 1), Y links alternate parallel (5) and serial (20) by row, so a
// saturated run keeps flits in several stages of the deeper delay lines.
func buildMixedMesh(tb testing.TB, side int) *Network {
	return buildMesh(tb, side, func(y int) LinkKind {
		return []LinkKind{KindParallel, KindSerial}[y&1]
	})
}

// buildMesh constructs a side×side mesh with XY routing whose X links are
// on-chip and whose links between rows y and y+1 are of kind yKind(y).
func buildMesh(tb testing.TB, side int, yKind func(y int) LinkKind) *Network {
	net := declareMesh(tb, side, yKind)
	net.Finalize()
	return net
}

// declareMesh is buildMesh before Finalize.
func declareMesh(tb testing.TB, side int, yKind func(y int) LinkKind) *Network {
	cfg := DefaultConfig()
	net, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	n := side * side
	net.AddNodes(n)
	rt := &xyTestRouting{side: side, vcMask: uint16(1<<cfg.VCs) - 1, ports: make([][4]int, n)}
	connect := func(kind LinkKind, a, b, dir int) {
		l := net.Connect(kind, NodeID(a), NodeID(b))
		rt.ports[a][dir] = l.SrcPort
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			id := y*side + x
			if x+1 < side {
				connect(KindOnChip, id, id+1, xyPX)
				connect(KindOnChip, id+1, id, xyNX)
			}
			if y+1 < side {
				connect(yKind(y), id, id+side, xyPY)
				connect(yKind(y), id+side, id, xyNY)
			}
		}
	}
	net.Routing = rt
	return net
}

// saturateXYMesh keeps every source backlogged with deterministic
// all-to-all traffic, the in-package twin of netbench.Saturator.
func saturateXYMesh(net *Network, now int64) {
	n := int64(len(net.Nodes))
	if int64(net.QueuedPackets()) >= n {
		return
	}
	for src := int64(0); src < n; src++ {
		dst := (src + n/2 + now%7) % n
		if dst == src {
			dst = (dst + 1) % n
		}
		net.Offer(net.NewPacket(NodeID(src), NodeID(dst), net.Cfg.PacketLength, now))
	}
}
