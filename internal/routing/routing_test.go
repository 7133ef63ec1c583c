package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"heteroif/internal/network"
	"heteroif/internal/topology"
)

func buildSystem(t *testing.T, sys topology.System, cx, cy, nx, ny int) (*network.Network, *topology.Topo, network.Routing) {
	t.Helper()
	cfg := network.DefaultConfig()
	net, topo, err := topology.Build(cfg, topology.Spec{System: sys, ChipletsX: cx, ChipletsY: cy, NodesX: nx, NodesY: ny})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	alg, err := ForSystem(topo, &cfg)
	if err != nil {
		t.Fatalf("ForSystem: %v", err)
	}
	net.Routing = alg
	return net, topo, alg
}

// route invokes the algorithm for a fresh packet at cur.
func route(net *network.Network, alg network.Routing, topo *topology.Topo, cur, dst network.NodeID) []network.Candidate {
	pkt := net.NewPacket(cur, dst, net.Cfg.PacketLength, 0)
	r := net.Nodes[cur]
	return alg.Route(net, r, r.InjectPort, pkt, nil)
}

// TestEveryPairHasEscape: for every (cur, dst) pair on every system, the
// routing function emits at least one escape candidate — the Lemma 1
// connectivity requirement.
func TestEveryPairHasEscape(t *testing.T) {
	systems := []topology.System{
		topology.UniformParallelMesh,
		topology.UniformSerialTorus,
		topology.HeteroPHYTorus,
		topology.UniformSerialHypercube,
		topology.HeteroChannel,
	}
	for _, sys := range systems {
		net, topo, alg := buildSystem(t, sys, 2, 2, 3, 3)
		for cur := network.NodeID(0); int(cur) < topo.N; cur++ {
			for dst := network.NodeID(0); int(dst) < topo.N; dst++ {
				if cur == dst {
					continue
				}
				cands := route(net, alg, topo, cur, dst)
				if len(cands) == 0 {
					t.Fatalf("%v: no candidates at %d for dst %d", sys, cur, dst)
				}
				hasEscape := false
				for _, c := range cands {
					if c.Escape {
						hasEscape = true
					}
					if c.VCMask == 0 {
						t.Fatalf("%v: empty VC mask at %d->%d", sys, cur, dst)
					}
					if c.Port <= 0 || c.Port >= len(topo.OutPorts[cur]) {
						t.Fatalf("%v: bad port %d at %d->%d", sys, c.Port, cur, dst)
					}
				}
				if !hasEscape {
					t.Fatalf("%v: no escape candidate at %d for dst %d", sys, cur, dst)
				}
			}
		}
	}
}

// TestEscapeDeliversEveryPair walks the escape subfunction hop by hop
// (always taking the first escape candidate) and checks every packet
// reaches its destination within a hop bound — connectivity and livelock
// freedom of the baseline.
func TestEscapeDeliversEveryPair(t *testing.T) {
	systems := []topology.System{
		topology.UniformParallelMesh,
		topology.UniformSerialTorus,
		topology.HeteroPHYTorus,
		topology.UniformSerialHypercube,
		topology.HeteroChannel,
	}
	for _, sys := range systems {
		net, topo, alg := buildSystem(t, sys, 2, 2, 3, 3)
		bound := 4 * (topo.GX + topo.GY)
		for src := network.NodeID(0); int(src) < topo.N; src++ {
			for dst := network.NodeID(0); int(dst) < topo.N; dst++ {
				if src == dst {
					continue
				}
				pkt := net.NewPacket(src, dst, 16, 0)
				cur := src
				hops := 0
				for cur != dst {
					r := net.Nodes[cur]
					cands := alg.Route(net, r, r.InjectPort, pkt, nil)
					var next network.NodeID = -1
					for _, c := range cands {
						if c.Escape {
							next = topo.OutPorts[cur][c.Port].Dest
							break
						}
					}
					if next < 0 {
						t.Fatalf("%v: no escape hop at %d (src %d dst %d)", sys, cur, src, dst)
					}
					cur = next
					hops++
					if hops > bound {
						t.Fatalf("%v: escape walk %d->%d exceeded %d hops (livelock)", sys, src, dst, bound)
					}
				}
			}
		}
	}
}

// TestAdaptiveWalkDelivers: greedily following the FIRST candidate (usually
// adaptive) must also terminate — profitability/waypoint monotonicity.
func TestAdaptiveWalkDelivers(t *testing.T) {
	systems := []topology.System{
		topology.UniformSerialTorus,
		topology.HeteroPHYTorus,
		topology.UniformSerialHypercube,
		topology.HeteroChannel,
	}
	for _, sys := range systems {
		net, topo, alg := buildSystem(t, sys, 2, 2, 4, 4)
		bound := 6 * (topo.GX + topo.GY)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 4000; trial++ {
			src := network.NodeID(rng.Intn(topo.N))
			dst := network.NodeID(rng.Intn(topo.N))
			if src == dst {
				continue
			}
			pkt := net.NewPacket(src, dst, 16, 0)
			cur := src
			hops := 0
			for cur != dst {
				r := net.Nodes[cur]
				cands := alg.Route(net, r, r.InjectPort, pkt, nil)
				// Pick a random candidate to exercise the full adaptive
				// surface.
				c := cands[rng.Intn(len(cands))]
				cur = topo.OutPorts[cur][c.Port].Dest
				hops++
				if hops > bound {
					t.Fatalf("%v: adaptive walk %d->%d exceeded %d hops", sys, src, dst, bound)
				}
			}
		}
	}
}

// TestMeshNegativeFirstProperty: escape candidates never make a positive
// move while a negative move is still needed (the turn-model rule).
func TestMeshNegativeFirstProperty(t *testing.T) {
	net, topo, alg := buildSystem(t, topology.UniformParallelMesh, 2, 2, 4, 4)
	f := func(a, b uint16) bool {
		cur := network.NodeID(int(a) % topo.N)
		dst := network.NodeID(int(b) % topo.N)
		if cur == dst {
			return true
		}
		ax, ay := topo.Coord(cur)
		bx, by := topo.Coord(dst)
		negNeeded := bx < ax || by < ay
		for _, c := range route(net, alg, topo, cur, dst) {
			if !c.Escape {
				continue
			}
			px, py := topo.Coord(topo.OutPorts[cur][c.Port].Dest)
			if negNeeded && (px > ax || py > ay) {
				return false // positive move while negative needed
			}
			// Escape moves must be minimal.
			if absInt(px-bx)+absInt(py-by) >= absInt(ax-bx)+absInt(ay-by) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestTorusWeightedProfitability: every adaptive torus candidate lies on a
// minimal weighted path (Sec. 5.2).
func TestTorusWeightedProfitability(t *testing.T) {
	net, topo, alg := buildSystem(t, topology.HeteroPHYTorus, 2, 2, 4, 4)
	tor := alg.(*Torus)
	f := func(a, b uint16) bool {
		cur := network.NodeID(int(a) % topo.N)
		dst := network.NodeID(int(b) % topo.N)
		if cur == dst {
			return true
		}
		wd := tor.WeightedDistance(cur, dst)
		for _, c := range route(net, alg, topo, cur, dst) {
			if c.Escape {
				continue
			}
			p := &topo.OutPorts[cur][c.Port]
			if tor.hopCost(p)+tor.WeightedDistance(p.Dest, dst) > wd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestTorusWeightedDistanceSymmetricAndTriangle: sanity properties of the
// weighted metric.
func TestTorusWeightedDistanceProperties(t *testing.T) {
	_, topo, alg := buildSystem(t, topology.UniformSerialTorus, 2, 2, 4, 4)
	tor := alg.(*Torus)
	f := func(a, b uint16) bool {
		x := network.NodeID(int(a) % topo.N)
		y := network.NodeID(int(b) % topo.N)
		if tor.WeightedDistance(x, y) != tor.WeightedDistance(y, x) {
			return false
		}
		if x == y && tor.WeightedDistance(x, y) != 0 {
			return false
		}
		// Edge consistency: for every out port of x, WD(x,y) ≤ cost +
		// WD(dest, y).
		for i := 1; i < len(topo.OutPorts[x]); i++ {
			p := &topo.OutPorts[x][i]
			if p.CubeDim >= 0 {
				continue
			}
			if tor.WeightedDistance(x, y) > tor.hopCost(p)+tor.WeightedDistance(p.Dest, y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// TestTorusDistanceTable: the tabled WeightedDistance equals the sum of the
// two per-dimension wdist1 terms for every node pair, on shapes that reach
// each branch of the wraparound condition: one chiplet column (no X
// wraparound), grids too narrow for wraparounds (GX, GY ≤ 2) and
// non-square chiplets.
func TestTorusDistanceTable(t *testing.T) {
	for _, sp := range []struct{ cx, cy, nx, ny int }{
		{1, 3, 4, 4}, // one chiplet column
		{2, 2, 1, 1}, // GX = GY = 2
		{2, 3, 1, 2}, // GX = 2, GY = 6
		{3, 2, 4, 2}, // non-square chiplets
		{4, 4, 4, 4}, // the 256-node Table-2 torus
	} {
		for _, sys := range []topology.System{topology.UniformSerialTorus, topology.HeteroPHYTorus} {
			_, topo, alg := buildSystem(t, sys, sp.cx, sp.cy, sp.nx, sp.ny)
			tor := alg.(*Torus)
			for a := network.NodeID(0); int(a) < topo.N; a++ {
				for b := network.NodeID(0); int(b) < topo.N; b++ {
					ax, ay := topo.Coord(a)
					bx, by := topo.Coord(b)
					want := tor.wdist1(ax, bx, topo.GX, topo.NodesX, topo.GX > 2 && topo.ChipletsX > 1) +
						tor.wdist1(ay, by, topo.GY, topo.NodesY, topo.GY > 2 && topo.ChipletsY > 1)
					if got := tor.WeightedDistance(a, b); got != want {
						t.Fatalf("%v %dx%d chiplets of %dx%d: WeightedDistance(%d, %d) = %d, wdist1 sum %d",
							sys, sp.cx, sp.cy, sp.nx, sp.ny, a, b, got, want)
					}
				}
			}
		}
	}
}

// TestHypercubePhaseClasses: minus-phase packets get VC0-only candidates,
// plus-phase packets never get VC0 (the deadlock-freedom discipline).
func TestHypercubePhaseClasses(t *testing.T) {
	net, topo, alg := buildSystem(t, topology.UniformSerialHypercube, 2, 2, 3, 3)
	for src := network.NodeID(0); int(src) < topo.N; src++ {
		for dst := network.NodeID(0); int(dst) < topo.N; dst++ {
			if topo.SameChiplet(src, dst) {
				continue
			}
			cc, dc := topo.ChipletID(src), topo.ChipletID(dst)
			minus := (cc ^ dc) & cc
			cands := route(net, alg, topo, src, dst)
			for _, c := range cands {
				if minus != 0 && c.VCMask != 1 {
					t.Fatalf("minus-phase packet %d->%d offered VC mask %b", src, dst, c.VCMask)
				}
				if minus == 0 && c.VCMask&1 != 0 {
					t.Fatalf("plus-phase packet %d->%d offered VC0 (mask %b)", src, dst, c.VCMask)
				}
			}
		}
	}
}

// TestHeteroChannelEq5Selection: the subnetwork preference matches Eq. 5.
func TestHeteroChannelEq5Selection(t *testing.T) {
	net, topo, alg := buildSystem(t, topology.HeteroChannel, 4, 4, 3, 3)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		src := network.NodeID(rng.Intn(topo.N))
		dst := network.NodeID(rng.Intn(topo.N))
		if src == dst {
			continue
		}
		pkt := net.NewPacket(src, dst, 16, 0)
		r := net.Nodes[src]
		alg.Route(net, r, r.InjectPort, pkt, nil)
		want := network.SubnetParallel
		if topo.ChipletMeshHops(src, dst) > topo.CubeHops(src, dst) {
			want = network.SubnetSerial
		}
		if pkt.Pref != want {
			t.Fatalf("Eq.5 pref for %d->%d = %v, want %v (Hp=%d Hs=%d)",
				src, dst, pkt.Pref, want,
				topo.ChipletMeshHops(src, dst), topo.CubeHops(src, dst))
		}
	}
}

// TestRestrictedPacketsStayOnBaseline: restricted packets only receive
// candidates along negative-first directions.
func TestRestrictedPacketsStayOnBaseline(t *testing.T) {
	net, topo, alg := buildSystem(t, topology.HeteroPHYTorus, 2, 2, 4, 4)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		src := network.NodeID(rng.Intn(topo.N))
		dst := network.NodeID(rng.Intn(topo.N))
		if src == dst {
			continue
		}
		pkt := net.NewPacket(src, dst, 16, 0)
		pkt.Restricted = true
		r := net.Nodes[src]
		cands := alg.Route(net, r, r.InjectPort, pkt, nil)
		ax, ay := topo.Coord(src)
		bx, by := topo.Coord(dst)
		negNeeded := bx < ax || by < ay
		for _, c := range cands {
			p := &topo.OutPorts[src][c.Port]
			if p.Wrap {
				t.Fatalf("restricted packet offered wraparound at %d->%d", src, dst)
			}
			px, py := topo.Coord(p.Dest)
			if negNeeded && (px > ax || py > ay) {
				t.Fatalf("restricted packet offered non-baseline move at %d->%d", src, dst)
			}
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestXYRoutingDeliversDeterministically: the XY baseline yields exactly
// one candidate everywhere and walks X-then-Y.
func TestXYRoutingDeliversDeterministically(t *testing.T) {
	net, topo, _ := buildSystem(t, topology.UniformParallelMesh, 2, 2, 3, 3)
	xy := &Mesh{T: topo, DimensionOrder: true}
	if xy.Name() != "xy-mesh" {
		t.Fatalf("name %q", xy.Name())
	}
	for src := network.NodeID(0); int(src) < topo.N; src++ {
		for dst := network.NodeID(0); int(dst) < topo.N; dst++ {
			if src == dst {
				continue
			}
			pkt := net.NewPacket(src, dst, 16, 0)
			cur := src
			hops := 0
			correctedX := false
			for cur != dst {
				r := net.Nodes[cur]
				cands := xy.Route(net, r, r.InjectPort, pkt, nil)
				if len(cands) != 1 {
					t.Fatalf("XY gave %d candidates at %d->%d", len(cands), cur, dst)
				}
				next := topo.OutPorts[cur][cands[0].Port].Dest
				cx, _ := topo.Coord(cur)
				nx, _ := topo.Coord(next)
				dx0, _ := topo.Coord(dst)
				if cx == int(dx0) { // x already corrected (coordinate match)
					correctedX = true
				}
				if correctedX && nx != cx {
					// Once Y routing begins, X must never change again.
					dxx, _ := topo.Coord(dst)
					if cx == dxx {
						t.Fatalf("XY made an X move after Y phase at %d->%d", src, dst)
					}
				}
				cur = next
				hops++
				if hops > topo.GX+topo.GY {
					t.Fatalf("XY exceeded minimal hop count for %d->%d", src, dst)
				}
			}
		}
	}
}

// TestXYEndToEnd runs XY routing in the engine at load.
func TestXYEndToEnd(t *testing.T) {
	net, topo, _ := buildSystem(t, topology.UniformParallelMesh, 2, 2, 3, 3)
	net.Routing = &Mesh{T: topo, DimensionOrder: true}
	net.Finalize()
	for i := 0; i < 50; i++ {
		src := network.NodeID(i % topo.N)
		dst := network.NodeID((i*7 + 5) % topo.N)
		if src != dst {
			net.Offer(net.NewPacket(src, dst, 8, 0))
		}
	}
	if err := net.Run(2000, nil); err != nil {
		t.Fatal(err)
	}
	if net.PacketsDelivered() != net.PacketsInjected() || net.PacketsDelivered() == 0 {
		t.Fatalf("delivered %d of %d", net.PacketsDelivered(), net.PacketsInjected())
	}
}
