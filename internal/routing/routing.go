// Package routing implements the deadlock-free routing algorithms of the
// paper and its baselines:
//
//   - negative-first adaptive routing for the uniform-parallel global 2D
//     mesh;
//   - mesh-escape adaptive routing for the 2D torus (uniform-serial and
//     hetero-PHY): wraparound serial links are purely adaptive extras over
//     a negative-first mesh escape subnetwork;
//   - minus-first adaptive routing for the serial hypercube (reproducing
//     the method of Feng et al. HPCA'23 [30]): chiplet-level e-cube/
//     minus-first escape with negative-first on-chip segments, adaptive
//     cube shortcuts on the remaining VCs;
//   - Algorithm 1 for hetero-channel systems: escape subnetwork
//     C0 = NoC-VC0 ∪ parallel-VC0 with negative-first routing over the
//     global mesh, every serial channel and every remaining VC fully
//     adaptive, with the Eq. 5 subnetwork-selection function and the
//     Sec. 6.2 livelock channel-switch restriction.
//
// Deadlock freedom follows Lemma 1 of the paper: each algorithm keeps a
// connected, deadlock-free routing subfunction on an escape channel subset
// that is reachable from every router; the virtual cut-through admission in
// the router (whole-packet buffering) removes wormhole indirect-dependency
// concerns. Livelock freedom: adaptive candidates are only emitted on
// (weighted-)minimal paths, and a packet that falls back to the escape
// subnetwork under congestion becomes Restricted and thereafter follows
// only baseline-consistent channels.
package routing

import (
	"fmt"

	"heteroif/internal/network"
	"heteroif/internal/topology"
)

// ForSystem returns the routing algorithm matching a built topology. The
// configuration supplies the per-kind link delays used as the Eq. 3/4
// weighted-path-length coefficients (α=1, latency-weighted).
func ForSystem(t *topology.Topo, cfg *network.Config) (network.Routing, error) {
	switch t.System {
	case topology.UniformParallelMesh:
		return &Mesh{T: t}, nil
	case topology.UniformSerialTorus:
		return NewTorus(t,
			1+cfg.OnChipDelay,
			1+cfg.SerialDelay,
			1+cfg.SerialDelay), nil
	case topology.HeteroPHYTorus:
		// Hetero-PHY neighbors: router + adapter cycle + parallel-path
		// delay at zero load; wraparounds are serial-only.
		return NewTorus(t,
			1+cfg.OnChipDelay,
			2+cfg.ParallelDelay,
			1+cfg.SerialDelay), nil
	case topology.UniformSerialHypercube:
		if cfg.VCs < 2 {
			// upperMask(1) is empty: plus-phase and final-spread candidates
			// would name no VC and never be allocated.
			return nil, fmt.Errorf("routing: minus-first hypercube routing needs 2 VCs, one per phase class (VC0: minus phase, VC1: plus phase and final spread); got %d", cfg.VCs)
		}
		return &Hypercube{T: t}, nil
	case topology.HeteroChannel:
		return &HeteroChannel{T: t}, nil
	default:
		return nil, fmt.Errorf("routing: no algorithm for system %v", t.System)
	}
}

// adaptiveMask returns the VC mask of the non-escape VCs (all but VC0).
func adaptiveMask(vcs int) uint16 { return (uint16(1)<<vcs - 1) &^ 1 }

// allMask returns the VC mask covering every VC.
func allMask(vcs int) uint16 { return uint16(1)<<vcs - 1 }

// meshStep classifies a mesh-family port's direction relative to a
// destination: whether it is a minimal (needed) direction and whether the
// negative-first escape function allows it.
func meshStep(ax, ay, px, py, bx, by int) (minimal, negFirst bool) {
	dx, dy := px-ax, py-ay
	switch {
	case dx == -1 && bx < ax, dx == 1 && bx > ax, dy == -1 && by < ay, dy == 1 && by > ay:
		minimal = true
	default:
		return false, false
	}
	negNeeded := bx < ax || by < ay
	if negNeeded {
		negFirst = dx == -1 || dy == -1
	} else {
		negFirst = true // all minimal moves are positive here
	}
	return minimal, negFirst
}

// Mesh is negative-first adaptive routing on the global 2D mesh
// (uniform-parallel systems). VC0 carries the negative-first escape
// function; the remaining VCs route minimally and fully adaptively.
// DimensionOrder switches to deterministic XY routing (the textbook
// baseline) for ablation: one path per pair, no adaptivity.
type Mesh struct {
	T *topology.Topo

	// DimensionOrder selects deterministic XY routing instead of
	// negative-first adaptive.
	DimensionOrder bool
}

// Name implements network.Routing.
func (m *Mesh) Name() string {
	if m.DimensionOrder {
		return "xy-mesh"
	}
	return "negative-first-mesh"
}

// Route implements network.Routing.
func (m *Mesh) Route(net *network.Network, r *network.Router, _ int, pkt *network.Packet, buf []network.Candidate) []network.Candidate {
	if m.DimensionOrder {
		return xyCandidate(m.T, net.Cfg.VCs, r, pkt, buf)
	}
	return meshCandidates(m.T, net.Cfg.VCs, r, pkt, buf)
}

// Stability implements network.Stable: both mesh variants read only
// (router, pkt.Dst, pkt.Restricted) and static topology, mutate nothing
// and ignore the input port, so the engine may memoize their candidates.
func (m *Mesh) Stability() network.RouteStability { return network.RouteRetryStable }

// xyCandidate emits the single XY-routing output: correct X fully, then Y.
// Deadlock-free by the classic turn argument (no Y→X turns); every VC is
// usable since the function is deterministic.
func xyCandidate(t *topology.Topo, vcs int, r *network.Router, pkt *network.Packet, buf []network.Candidate) []network.Candidate {
	ax, ay := t.Coord(r.ID)
	bx, by := t.Coord(pkt.Dst)
	ports := t.OutPorts[r.ID]
	for i := 1; i < len(ports); i++ {
		p := &ports[i]
		if p.Dead || p.Wrap || p.CubeDim >= 0 {
			continue
		}
		px, py := t.Coord(p.Dest)
		dx, dy := px-ax, py-ay
		var want bool
		switch {
		case bx < ax:
			want = dx == -1
		case bx > ax:
			want = dx == 1
		case by < ay:
			want = dy == -1
		default:
			want = dy == 1
		}
		if want {
			return append(buf, network.Candidate{Port: i, VCMask: allMask(vcs), Escape: true})
		}
	}
	panic("routing: XY found no output (disconnected mesh)")
}

// meshCandidates emits adaptive-then-escape candidates for pure global-mesh
// movement toward pkt.Dst. Shared by Mesh and the in-chiplet/mesh modes of
// the other algorithms.
func meshCandidates(t *topology.Topo, vcs int, r *network.Router, pkt *network.Packet, buf []network.Candidate) []network.Candidate {
	ax, ay := t.Coord(r.ID)
	bx, by := t.Coord(pkt.Dst)
	adapt := adaptiveMask(vcs)
	ports := t.OutPorts[r.ID]
	// Adaptive candidates (VC≥1) on every minimal mesh direction; ports are
	// ordered cheapest-kind-first by construction (on-chip before
	// interface links).
	if adapt != 0 {
		for i := 1; i < len(ports); i++ {
			p := &ports[i]
			if p.Dead || p.Wrap || p.CubeDim >= 0 {
				continue
			}
			px, py := t.Coord(p.Dest)
			minimal, negOK := meshStep(ax, ay, px, py, bx, by)
			if !minimal || (pkt.Restricted && !negOK) {
				continue
			}
			buf = append(buf, network.Candidate{Port: i, VCMask: adapt})
		}
	}
	// Escape candidates (VC0, negative-first).
	for i := 1; i < len(ports); i++ {
		p := &ports[i]
		if p.Dead || p.Wrap || p.CubeDim >= 0 {
			continue
		}
		px, py := t.Coord(p.Dest)
		if _, negOK := meshStep(ax, ay, px, py, bx, by); negOK {
			buf = append(buf, network.Candidate{Port: i, VCMask: 1, Escape: true})
		}
	}
	return buf
}

// Torus routes the global 2D torus built from a negative-first mesh escape
// subnetwork plus purely adaptive serial wraparound links (uniform-serial
// torus and hetero-PHY torus systems).
//
// Adaptive profitability uses the weighted path length of Sec. 5.2
// (Eq. 3/4 with latency weights): a candidate channel is on a minimal
// *weighted* path, so a 21-cycle serial wraparound hop is taken only when
// the mesh detour it saves really costs more — the hop count alone would
// claim a wrap "saves" hops it loses on latency.
type Torus struct {
	T *topology.Topo

	// Per-hop zero-load latency costs: on-chip, chiplet-boundary
	// (parallel/serial/hetero neighbor) and wraparound hops.
	cOn, cIf, cWrap int

	// wx[ax*GX+bx] and wy[ay*GY+by] table wdist1 along each dimension
	// (GX² + GY² entries), so a weighted distance is two loads and an add.
	wx, wy []int32
}

// NewTorus builds the torus router with the given Eq. 3 hop costs.
func NewTorus(t *topology.Topo, cOn, cIf, cWrap int) *Torus {
	tor := &Torus{T: t, cOn: cOn, cIf: cIf, cWrap: cWrap}
	tor.wx = tor.distTable(t.GX, t.NodesX, t.GX > 2 && t.ChipletsX > 1)
	tor.wy = tor.distTable(t.GY, t.NodesY, t.GY > 2 && t.ChipletsY > 1)
	return tor
}

// distTable evaluates wdist1 for every coordinate pair of one dimension.
func (t *Torus) distTable(n, chipletNodes int, wrap bool) []int32 {
	d := make([]int32, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			d[a*n+b] = int32(t.wdist1(a, b, n, chipletNodes, wrap))
		}
	}
	return d
}

// Name implements network.Routing.
func (t *Torus) Name() string { return "mesh-escape-torus" }

// wdist1 is the weighted distance along one dimension of the torus: the
// cheaper of the direct mesh path and the path around through the
// wraparound link, counting on-chip and boundary hops at their costs.
// n is the dimension's node count, chipletNodes the per-chiplet extent,
// wrap whether the dimension has wraparound links.
func (t *Torus) wdist1(a, b, n, chipletNodes int, wrap bool) int {
	if a == b {
		return 0
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	bndDirect := hi/chipletNodes - lo/chipletNodes
	hopsDirect := hi - lo
	direct := (hopsDirect-bndDirect)*t.cOn + bndDirect*t.cIf
	if !wrap {
		return direct
	}
	bndTotal := n/chipletNodes - 1
	hopsWrap := n - hopsDirect - 1 // mesh hops on the outer path
	bndWrap := bndTotal - bndDirect
	around := (hopsWrap-bndWrap)*t.cOn + bndWrap*t.cIf + t.cWrap
	return min(direct, around)
}

// WeightedDistance is the Eq. 4 path length between two nodes at zero load.
func (t *Torus) WeightedDistance(a, b network.NodeID) int {
	ax, ay := t.T.Coord(a)
	bx, by := t.T.Coord(b)
	return t.wdist(ax, ay, bx, by)
}

// wdist is WeightedDistance between global coordinates.
func (t *Torus) wdist(ax, ay, bx, by int) int {
	return int(t.wx[ax*t.T.GX+bx] + t.wy[ay*t.T.GY+by])
}

// hopCost prices one hop by its port kind.
func (t *Torus) hopCost(p *topology.PortInfo) int {
	if p.Wrap {
		return t.cWrap
	}
	if p.Kind == network.KindOnChip {
		return t.cOn
	}
	return t.cIf
}

// Stability implements network.Stable. Route reads (router, pkt.Dst,
// pkt.Restricted) and the static weighted distances. Once a wraparound
// channel has failed, it also sets pkt.Restricted when the packet's minimal
// weighted path assumed the dead wrap — a mutation confined to the
// memoization key, which is exactly what RouteRetryStable permits (the
// cached candidate set is invalidated by the Restricted flip and recomputed
// on the next attempt).
func (t *Torus) Stability() network.RouteStability { return network.RouteRetryStable }

// Route implements network.Routing.
func (t *Torus) Route(net *network.Network, r *network.Router, _ int, pkt *network.Packet, buf []network.Candidate) []network.Candidate {
	tp := t.T
	ax, ay := tp.Coord(r.ID)
	bx, by := tp.Coord(pkt.Dst)
	adapt := adaptiveMask(net.Cfg.VCs)
	all := allMask(net.Cfg.VCs)
	cur := t.wdist(ax, ay, bx, by)
	ports := tp.OutPorts[r.ID]

	if !pkt.Restricted {
		// Adaptive: every port (mesh direction or wraparound) on a minimal
		// weighted path. Wraparounds are not in the escape subnetwork, so
		// every VC of them is adaptive (they are serial channels: C_{S,j}
		// for all j).
		for i := 1; i < len(ports); i++ {
			p := &ports[i]
			if p.CubeDim >= 0 {
				continue
			}
			if px, py := tp.Coord(p.Dest); t.hopCost(p)+t.wdist(px, py, bx, by) > cur {
				continue
			}
			if p.Dead {
				// The weighted-distance heuristic assumed this wraparound
				// existed; with the channel failed the packet would chase
				// it forever. Fall back to the baseline permanently — the
				// Sec. 6.2 channel-switch restriction triggered by a fault
				// instead of congestion.
				if p.Wrap {
					pkt.Restricted = true
				}
				continue
			}
			mask := adapt
			if p.Wrap {
				mask = all
			}
			if mask == 0 {
				continue
			}
			buf = append(buf, network.Candidate{Port: i, VCMask: mask})
		}
	} else if adapt != 0 {
		// Restricted packets may only use adaptive channels on baseline
		// (negative-first mesh) paths.
		for i := 1; i < len(ports); i++ {
			p := &ports[i]
			if p.Dead || p.Wrap || p.CubeDim >= 0 {
				continue
			}
			px, py := tp.Coord(p.Dest)
			if _, negOK := meshStep(ax, ay, px, py, bx, by); negOK {
				buf = append(buf, network.Candidate{Port: i, VCMask: adapt})
			}
		}
	}
	// Escape: negative-first over the mesh sublinks.
	for i := 1; i < len(ports); i++ {
		p := &ports[i]
		if p.Dead || p.Wrap || p.CubeDim >= 0 {
			continue
		}
		px, py := tp.Coord(p.Dest)
		if _, negOK := meshStep(ax, ay, px, py, bx, by); negOK {
			buf = append(buf, network.Candidate{Port: i, VCMask: 1, Escape: true})
		}
	}
	return buf
}
