package network

import (
	"sync/atomic"
	"testing"
)

// This file holds the saturated-state bit-identity oracle: the optimized
// router tick (work-list bitmaps, RC memoization, VA/SA parking,
// direct-staged links) against the retained naive reference tick (full
// port×VC scans, Route re-evaluated every retry). The two
// engines must agree on every observable — per-packet arrival cycles and
// energies, hop counts, grant statistics, VA-failure totals and credit
// conservation — under sustained saturation, the regime where every fast
// path actually fires.

const (
	xyPX = iota
	xyNX
	xyPY
	xyNY
)

// xyTestRouting is dimension-ordered mesh routing (X then Y), the
// in-package twin of netbench's benchmark routing. Candidates depend only on
// the router and the packet's destination, so it is retry-stable and the
// engine memoizes them. calls counts Route invocations.
type xyTestRouting struct {
	side   int
	vcMask uint16
	ports  [][4]int
	calls  atomic.Int64
}

func (x *xyTestRouting) Name() string { return "test-xy" }

func (x *xyTestRouting) Stability() RouteStability { return RouteRetryStable }

func (x *xyTestRouting) Route(_ *Network, r *Router, _ int, pkt *Packet, buf []Candidate) []Candidate {
	x.calls.Add(1)
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
// same shape the kernel benchmarks use.
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
	net.Finalize()
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

// arrival is one delivered packet's observable footprint.
type arrival struct {
	id                       uint64
	at                       int64
	energy, onChip, iface    float64
	hopsOn, hopsPar, hopsSer int32
}

func TestSaturatedReferenceOracle(t *testing.T) {
	const side, cycles = 6, 1500
	run := func(ref bool) (*Network, []arrival) {
		net := buildXYMesh(t, side)
		net.SetReferenceTick(ref)
		var got []arrival
		net.Sink = func(p *Packet) {
			got = append(got, arrival{p.ID, p.ArrivedAt, p.EnergyPJ, p.EnergyOnChipPJ, p.EnergyIfacePJ,
				p.HopsOnChip, p.HopsParallel, p.HopsSerial})
		}
		for net.Now < cycles {
			saturateXYMesh(net, net.Now)
			net.Step()
			if net.Now%97 == 0 {
				if err := net.CheckCredits(); err != nil {
					t.Fatalf("refTick=%v cycle %d: %v", ref, net.Now, err)
				}
			}
		}
		if err := net.CheckCredits(); err != nil {
			t.Fatalf("refTick=%v final: %v", ref, err)
		}
		return net, got
	}

	fastNet, fast := run(false)
	refNet, refArr := run(true)

	// The optimized side memoizes candidates per VC across VA retries; the
	// reference re-evaluates Route on every one.
	if fc, rc := fastNet.Routing.(*xyTestRouting).calls.Load(), refNet.Routing.(*xyTestRouting).calls.Load(); fc >= rc {
		t.Errorf("optimized engine made %d Route calls, reference %d: no memoization", fc, rc)
	}
	if len(fast) == 0 {
		t.Fatal("no packets delivered under saturation")
	}
	if len(fast) != len(refArr) {
		t.Fatalf("deliveries differ: %d optimized vs %d reference", len(fast), len(refArr))
	}
	for i := range fast {
		if fast[i] != refArr[i] {
			t.Fatalf("delivery %d diverges: optimized %+v vs reference %+v", i, fast[i], refArr[i])
		}
	}
	if fastNet.VAFailures != refNet.VAFailures {
		t.Errorf("VAFailures diverge: optimized %d vs reference %d", fastNet.VAFailures, refNet.VAFailures)
	}
	if fastNet.GrantsByKind != refNet.GrantsByKind {
		t.Errorf("GrantsByKind diverge: optimized %v vs reference %v", fastNet.GrantsByKind, refNet.GrantsByKind)
	}
	if fastNet.InFlightFlits() != refNet.InFlightFlits() {
		t.Errorf("in-flight flits diverge: optimized %d vs reference %d", fastNet.InFlightFlits(), refNet.InFlightFlits())
	}
	if fastNet.PacketsInjected() != refNet.PacketsInjected() {
		t.Errorf("injections diverge: optimized %d vs reference %d", fastNet.PacketsInjected(), refNet.PacketsInjected())
	}
}
