package network

import (
	"fmt"
	"testing"
)

// plainKinds are the three plain channel models of Table 2; every link
// test runs over all of them (Delay 1, 5 and 20 at the defaults).
var plainKinds = []LinkKind{KindOnChip, KindParallel, KindSerial}

// linkRig is a finalized two-router network whose 0→1 link the tests drive
// by hand: accept flits at the source side, run the link phase cycle by
// cycle, and take what became visible in router 1's input rings. The
// routers never tick, so the link is observed in isolation. Every flit is
// its own single-flit packet (a ring only ever fronts head flits), told
// apart by packet ID.
type linkRig struct {
	t   *testing.T
	net *Network
	l   *Link
}

func newLinkRig(t *testing.T, kind LinkKind) *linkRig {
	net, l := twoNodeNet(t, kind, nil)
	return &linkRig{t: t, net: net, l: l}
}

// overPlainKinds runs fn on a fresh rig per plain link kind.
func overPlainKinds(t *testing.T, fn func(t *testing.T, g *linkRig)) {
	for _, kind := range plainKinds {
		t.Run(kind.String(), func(t *testing.T) { fn(t, newLinkRig(t, kind)) })
	}
}

func (g *linkRig) flit(vc VCID) Flit {
	return Flit{P: g.net.NewPacket(0, 1, 1, 0).ref, VC: vc}
}

// id returns the ID of f's packet.
func (g *linkRig) id(f Flit) uint64 { return g.net.Packet(f.P).ID }

// accept pushes one fresh flit into the link in the current cycle, as a
// one-flit run the way the switch stage hands one over (per flit on a
// retry link), and returns its packet ID.
func (g *linkRig) accept(vc VCID) uint64 {
	f := g.flit(vc)
	if g.l.Adapter != nil {
		g.l.acceptEach(g.net.Now, []Flit{f}, nil, vc)
	} else {
		g.l.AcceptRun([]Flit{f}, nil, vc)
	}
	return g.id(f)
}

// advance moves to the next cycle, runs the link phase and drains router
// 1's input rings: the flits that became visible this cycle, per VC in
// ring order.
func (g *linkRig) advance() []Flit {
	g.net.Now++
	var moved uint64
	g.net.linkArrivals(g.l, &moved)
	in := &g.net.Nodes[1].In[g.l.DstPort]
	var got []Flit
	for v := range in.VCs {
		for q := &in.VCs[v].Buf; !q.Empty(); q.Drop(1) {
			got = append(got, q.Front())
		}
	}
	if int(moved) != len(got) {
		g.t.Fatalf("cycle %d: link phase counted %d movements, %d flits became visible", g.net.Now, moved, len(got))
	}
	return got
}

func TestLinkDeliversAfterDelay(t *testing.T) {
	overPlainKinds(t, func(t *testing.T, g *linkRig) {
		id := g.accept(0)
		for cyc := 1; cyc < g.l.Delay; cyc++ {
			if got := g.advance(); len(got) != 0 {
				t.Fatalf("flit emerged after %d cycles, want %d", cyc, g.l.Delay)
			}
		}
		got := g.advance()
		if len(got) != 1 || g.id(got[0]) != id {
			t.Fatalf("flit did not emerge after delay %d: %v", g.l.Delay, got)
		}
		if g.l.InFlight() != 0 {
			t.Fatalf("in-flight count %d after delivery", g.l.InFlight())
		}
	})
}

func TestLinkBandwidthLimit(t *testing.T) {
	overPlainKinds(t, func(t *testing.T, g *linkRig) {
		bw := g.net.Cfg.Bandwidth(g.l.Kind)
		if g.l.FreeSlots() != bw {
			t.Fatalf("free slots %d, want %d", g.l.FreeSlots(), bw)
		}
		for i := 0; i < bw; i++ {
			g.accept(0)
		}
		if g.l.FreeSlots() != 0 {
			t.Fatalf("free slots %d after filling cycle budget", g.l.FreeSlots())
		}
		// The budget resets once the pipeline advances.
		g.advance()
		if g.l.FreeSlots() != bw {
			t.Fatalf("budget did not reset: %d", g.l.FreeSlots())
		}
	})
}

// TestLinkPreservesOrderWithinAndAcrossCycles streams more flits than the
// destination ring holds, at full bandwidth on two VCs, alternating
// one-flit runs with multi-flit ones: each must become visible exactly
// Delay cycles after its acceptance, in acceptance order per VC, across
// the ring's wrap.
func TestLinkPreservesOrderWithinAndAcrossCycles(t *testing.T) {
	overPlainKinds(t, func(t *testing.T, g *linkRig) {
		depth := g.net.Cfg.BufPerVC(g.l.Kind)
		total := 2*depth + 5
		due := map[uint64]int64{} // packet ID -> cycle it must become visible
		var sent, got [2][]uint64
		record := func(vc VCID, id uint64) {
			sent[vc] = append(sent[vc], id)
			due[id] = g.net.Now + int64(g.l.Delay)
		}
		for n := 0; n < total || g.l.InFlight() > 0; {
			vc := VCID(g.net.Now & 1)
			k := min(g.l.FreeSlots(), total-n)
			switch {
			case k == 0:
			case g.net.Now%3 == 0:
				// One bulk run, handed over as two views like a wrapped ring
				// read; AcceptRun rewrites the VC.
				run := make([]Flit, k)
				for i := range run {
					run[i] = g.flit(7)
					record(vc, g.id(run[i]))
				}
				g.l.AcceptRun(run[:k/2], run[k/2:], vc)
			default:
				for i := 0; i < k; i++ {
					record(vc, g.accept(vc))
				}
			}
			n += k
			for _, f := range g.advance() {
				if id := g.id(f); due[id] != g.net.Now {
					t.Fatalf("flit %d visible at cycle %d, want %d", id, g.net.Now, due[id])
				}
				got[f.VC] = append(got[f.VC], g.id(f))
			}
		}
		for vc := range sent {
			if fmt.Sprint(got[vc]) != fmt.Sprint(sent[vc]) {
				t.Fatalf("vc %d: order broken:\n got %v\nwant %v", vc, got[vc], sent[vc])
			}
		}
		if len(got[0])+len(got[1]) != total {
			t.Fatalf("delivered %d flits, want %d", len(got[0])+len(got[1]), total)
		}
	})
}

// TestLinkCreditReturnDelay: a credit returned in cycle t is back in the
// source router's counter exactly Delay link phases later, through the
// path the engine uses (creditArrivals).
func TestLinkCreditReturnDelay(t *testing.T) {
	overPlainKinds(t, func(t *testing.T, g *linkRig) {
		out := &g.net.Nodes[0].Out[g.l.SrcPort]
		depth := out.Credits[1]
		out.Credits[1]-- // as if one flit had been sent on VC 1
		g.l.ReturnCredits(1, 1)
		for cyc := 1; cyc <= g.l.Delay; cyc++ {
			if out.Credits[1] != depth-1 {
				t.Fatalf("credit returned after %d cycles, want %d", cyc-1, g.l.Delay)
			}
			g.l.creditArrivals()
		}
		if out.Credits[1] != depth {
			t.Fatal("credit not returned after delay")
		}
		for v, c := range out.Credits[:g.net.Cfg.VCs] {
			if c != depth {
				t.Fatalf("vc %d holds %d credits, want %d", v, c, depth)
			}
		}
		if g.l.Busy() {
			t.Fatal("link still busy after the credit completed")
		}
	})
}

// TestLinkEnergyAccounting: Accept and AcceptRun (both ring views) charge
// nothing to the packets they carry — a plain link's traversal is implied
// by the hop count — and a 3-flit packet that took one hop over the link
// settles to three wire traversals plus its router traversals, in the
// kind's bucket.
func TestLinkEnergyAccounting(t *testing.T) {
	overPlainKinds(t, func(t *testing.T, g *linkRig) {
		cfg := &g.net.Cfg
		g.accept(0)
		got := g.advance()
		run := []Flit{g.flit(0), g.flit(0)}
		g.l.AcceptRun(run[:1], run[1:], 1)
		for c := 0; c < g.l.Delay; c++ {
			got = append(got, g.advance()...)
		}
		if len(got) != 3 {
			t.Fatalf("%d flits arrived, want 3", len(got))
		}
		for i, f := range got {
			if tx := g.net.Packet(f.P).tx; tx != [energyClasses]uint64{} {
				t.Fatalf("flit %d: packet charged %v traversals (on-chip/parallel/serial), want none", i, tx)
			}
		}
		wire := cfg.FlitPJ(g.l.Kind)
		if wire == 0 {
			t.Fatal("fixture charges no link energy")
		}
		pkt := g.net.NewPacket(0, 1, 3, 0)
		switch g.l.Kind {
		case KindOnChip:
			pkt.HopsOnChip = 1
		case KindParallel:
			pkt.HopsParallel = 1
		case KindSerial:
			pkt.HopsSerial = 1
		}
		pkt.settleEnergy(cfg)
		wantOnChip, wantIface := 6*cfg.RouterPJPerFlit, 3*wire
		if g.l.Kind == KindOnChip {
			wantOnChip, wantIface = wantOnChip+wantIface, 0
		}
		if pkt.EnergyOnChipPJ != wantOnChip || pkt.EnergyIfacePJ != wantIface || pkt.EnergyPJ != wantOnChip+wantIface {
			t.Fatalf("settled %.2f/%.2f/%.2f pJ (total/on-chip/interface), want %.2f/%.2f/%.2f",
				pkt.EnergyPJ, pkt.EnergyOnChipPJ, pkt.EnergyIfacePJ, wantOnChip+wantIface, wantOnChip, wantIface)
		}
	})
}

func TestLinkBusy(t *testing.T) {
	overPlainKinds(t, func(t *testing.T, g *linkRig) {
		if g.l.Busy() || g.l.fwdBusy() {
			t.Fatal("fresh link busy")
		}
		g.accept(0)
		for c := 1; c <= g.l.Delay; c++ {
			if !g.l.Busy() || !g.l.fwdBusy() || g.l.InFlight() != 1 {
				t.Fatalf("cycle %d: link with a flit in flight reports busy=%v fwdBusy=%v inFlight=%d",
					c-1, g.l.Busy(), g.l.fwdBusy(), g.l.InFlight())
			}
			g.advance()
		}
		if g.l.Busy() || g.l.fwdBusy() || g.l.InFlight() != 0 {
			t.Fatal("drained link still busy")
		}
	})
}

// TestCreditViolationPanicsAtPublication: a plain link never checks the
// destination ring when it stages a flit (the producer may not read the
// consumer's occupancy); the credit protocol is checked where the flits
// become visible. Hand one output VC more credits than its downstream
// buffer has slots, plug the ejection port so the buffer backs up, and the
// publication that no longer fits must panic.
func TestCreditViolationPanicsAtPublication(t *testing.T) {
	for _, kind := range plainKinds {
		t.Run(kind.String(), func(t *testing.T) {
			// Config.Validate refuses a zero ejection bandwidth, so the
			// port is plugged on the router before Finalize reads it.
			net, l := declareTwoNodeNet(t, kind, nil)
			net.Nodes[1].ejBW = 0
			net.Finalize()
			out := &net.Nodes[0].Out[l.SrcPort]
			out.Credits[0] += out.Depth
			want := fmt.Sprintf("network: input buffer overflow at node 1 port %d vc 0 (credit protocol violated)", l.DstPort)
			defer func() {
				if got := recover(); got != want {
					t.Fatalf("recovered %v, want panic %q", got, want)
				}
			}()
			for i := 0; i < 2*int(out.Depth); i++ {
				net.Offer(net.NewPacket(0, 1, 4, 0))
			}
			for net.Now < int64(16*out.Depth) {
				net.Step()
			}
			t.Fatal("credit violation went unnoticed")
		})
	}
}
