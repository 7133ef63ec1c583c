package routing

import (
	"heteroif/internal/network"
	"heteroif/internal/topology"
)

// HeteroChannel implements Algorithm 1 of the paper for the hetero-channel
// system (parallel-IF global mesh + serial-IF chiplet hypercube):
//
//	C0 (escape)  = VC0 of every on-chip and parallel channel, routed
//	               negative-first over the global 2D mesh — connected and
//	               deadlock-free, so by Lemma 1 the whole function is
//	               deadlock-free (Theorem 1);
//	adaptive     = every serial channel (all VCs) plus VC≥1 of on-chip and
//	               parallel channels, usable on any optional minimal path.
//
// The Eq. 5 selection function picks the subnetwork with the fewer
// remaining cross-chiplet hops: while #H_P − #H_S > 0 the packet steers
// toward the serial cube (minus-first waypoints, like Hypercube); once the
// mesh is at least as short the packet finishes over the low-latency
// parallel mesh — this is what lets hetero-channel beat the serial-only
// hypercube near the destination (Sec. 8.1.2). Because mesh hops only
// shrink in mesh mode and every cube hop reduces the Hamming distance, the
// mode sequence terminates: serial hops are bounded by the cube dimension
// and the final mesh phase is monotone (livelock-free).
type HeteroChannel struct {
	T *topology.Topo

	// Bias weights the serial side of the Eq. 5 comparison: the cube is
	// chosen when #H_P > Bias·#H_S. The default (0 → 1.0) minimizes total
	// cross-chiplet hops, the paper's balanced rule. Setting it to the
	// serial/parallel energy ratio (≈2.4) yields the energy-efficient
	// scheduling of Sec. 8.3: serial hops are taken only when they save
	// enough parallel hops to pay for their higher per-bit energy (the
	// γ-weighted Eq. 3 cost).
	Bias float64
}

// serialFirst is the Eq. 5 selection from node a toward dst: true while
// the parallel mesh needs more than Bias times the cube's chiplet hops.
func (h *HeteroChannel) serialFirst(a, dst network.NodeID) bool {
	bias := h.Bias
	if bias <= 0 {
		bias = 1
	}
	return float64(h.T.ChipletMeshHops(a, dst)) > bias*float64(h.T.CubeHops(a, dst))
}

// Name implements network.Routing.
func (h *HeteroChannel) Name() string { return "algorithm1-hetero-channel" }

// Stability implements network.Stable. The Eq. 5 mode choice and the cube
// waypoint depend on the packet's current position (via pkt.Target state),
// so Route is not pure; but for a packet waiting at one router every input
// is static and the mutations are idempotent — pkt.Pref is written once at
// hop 0 and then left alone, pkt.Target is rewritten to the same value
// (mesh mode: -1; serial mode: the deterministic nearest waypoint) on
// every retry. Candidates may therefore be cached across VA retries
// (RouteRetryStable); the Restricted flag, which switches the candidate
// shape entirely, is part of the engine's memoization key.
func (h *HeteroChannel) Stability() network.RouteStability { return network.RouteRetryStable }

// Route implements network.Routing.
func (h *HeteroChannel) Route(net *network.Network, r *network.Router, _ int, pkt *network.Packet, buf []network.Candidate) []network.Candidate {
	t := h.T

	// Record the Eq. 5 choice made at the source for statistics.
	if pkt.Pref == network.SubnetAny && pkt.Hops() == 0 {
		if h.serialFirst(pkt.Src, pkt.Dst) {
			pkt.Pref = network.SubnetSerial
		} else {
			pkt.Pref = network.SubnetParallel
		}
	}

	if t.SameChiplet(r.ID, pkt.Dst) || pkt.Restricted {
		return meshCandidates(t, net.Cfg.VCs, r, pkt, buf)
	}

	if !h.serialFirst(r.ID, pkt.Dst) {
		pkt.Target = -1
		return meshCandidates(t, net.Cfg.VCs, r, pkt, buf)
	}

	// Serial mode: head for the waypoint owning the chosen cube dimension.
	target := ensureTarget(t, r, pkt)
	diff := neededDims(t, r.ID, pkt.Dst)
	all := allMask(net.Cfg.VCs)
	ports := t.OutPorts[r.ID]

	// Any needed cube dimension at this node is fully adaptive (every
	// serial VC is outside C0).
	for i := 1; i < len(ports); i++ {
		p := &ports[i]
		if !p.Dead && p.CubeDim >= 0 && diff&(1<<p.CubeDim) != 0 {
			buf = append(buf, network.Candidate{Port: i, VCMask: all})
		}
	}
	if r.ID != target {
		// Adaptive on-chip movement toward the waypoint; the escape set
		// is always negative-first toward the final destination over the
		// global mesh (C0 must stay a routing subfunction to pkt.Dst).
		buf = onChipToward(t, net.Cfg.VCs, r, target, false, false, buf)
	}
	return appendMeshEscape(t, r, pkt, buf)
}

// appendMeshEscape emits the C0 escape candidates: negative-first over the
// global mesh (on-chip + parallel VC0) toward the destination.
func appendMeshEscape(t *topology.Topo, r *network.Router, pkt *network.Packet, buf []network.Candidate) []network.Candidate {
	ax, ay := t.Coord(r.ID)
	bx, by := t.Coord(pkt.Dst)
	ports := t.OutPorts[r.ID]
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
