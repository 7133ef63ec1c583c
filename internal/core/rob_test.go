package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"heteroif/internal/network"
)

// testNet is the two-node network whose packet table the tests' packets
// live in; adapters under test charge their PHY traversals to it.
var testNet = func() *network.Network {
	net, err := network.New(network.DefaultConfig())
	if err != nil {
		panic(err)
	}
	net.AddNodes(2)
	return net
}()

// mkPkt makes a packet of the given class, its length clamped to what a
// flit can index (streams of more flits reuse sequence numbers).
func mkPkt(length int, class network.Class) *network.Packet {
	p := testNet.NewPacket(0, 1, min(max(length, 1), network.MaxPacketLength), 0)
	p.Class = class
	return p
}

// flitOf returns flit seq of p on virtual channel vc.
func flitOf(p *network.Packet, seq int, vc network.VCID) network.Flit {
	return network.Flit{P: p.Ref(), Seq: uint16(seq), VC: vc, Class: p.Class}
}

// TestROBPerVCOrder: flits of one VC inserted out of order are released in
// VSN order.
func TestROBPerVCOrder(t *testing.T) {
	rob := NewROB(2)
	pkt := mkPkt(4, network.ClassBestEffort)
	// Insert VSN 2, 0, 3, 1 on VC 0.
	for _, vsn := range []uint16{2, 0, 3, 1} {
		rob.Insert(flitOf(pkt, int(vsn), 0), 0, vsn)
	}
	var got []uint16
	rob.Release(func(f network.Flit) { got = append(got, f.Seq) })
	if len(got) != 4 {
		t.Fatalf("released %d of 4 flits", len(got))
	}
	for i, v := range got {
		if v != uint16(i) {
			t.Fatalf("release order broken at %d: VSN %d", i, v)
		}
	}
	if rob.Occupancy() != 0 {
		t.Fatalf("occupancy %d after full release", rob.Occupancy())
	}
}

// TestROBHoldsGaps: a missing VSN blocks later flits of that VC but not
// other VCs.
func TestROBHoldsGaps(t *testing.T) {
	rob := NewROB(2)
	pkt := mkPkt(8, network.ClassBestEffort)
	rob.Insert(flitOf(pkt, int(1), 0), 0, 1) // gap: VSN 0 missing
	rob.Insert(flitOf(pkt, int(5), 1), 0, 0)
	var got []network.Flit
	rob.Release(func(f network.Flit) { got = append(got, f) })
	if len(got) != 1 || got[0].VC != 1 {
		t.Fatalf("expected only the VC-1 flit to release, got %v", got)
	}
	// Fill the gap; both release in order.
	rob.Insert(flitOf(pkt, 0, 0), 0, 0)
	got = got[:0]
	rob.Release(func(f network.Flit) { got = append(got, f) })
	if len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 1 {
		t.Fatalf("gap fill release wrong: %v", got)
	}
}

// TestROBInOrderClassWaitsForGlobalSN: an in-order flit with a later global
// SN must wait for earlier in-order flits even on another VC.
func TestROBInOrderClassWaitsForGlobalSN(t *testing.T) {
	rob := NewROB(2)
	p0 := mkPkt(2, network.ClassInOrder)
	p1 := mkPkt(2, network.ClassInOrder)
	// SN 1 arrives first (VC 1); SN 0 (VC 0) is still in flight.
	rob.Insert(flitOf(p1, 0, 1), 1, 0)
	var got []network.Flit
	rob.Release(func(f network.Flit) { got = append(got, f) })
	if len(got) != 0 {
		t.Fatalf("in-order flit released before its predecessor: %v", got)
	}
	rob.Insert(flitOf(p0, 0, 0), 0, 0)
	rob.Release(func(f network.Flit) { got = append(got, f) })
	if len(got) != 2 || got[0].P != p0.Ref() || got[1].P != p1.Ref() {
		t.Fatalf("in-order release sequence wrong: %v", got)
	}
}

// TestROBBestEffortSkipsGlobalSN: best-effort flits ignore the global SN
// stream.
func TestROBBestEffortSkipsGlobalSN(t *testing.T) {
	rob := NewROB(2)
	pkt := mkPkt(2, network.ClassBestEffort)
	rob.Insert(flitOf(pkt, 0, 0), 99, 0)
	n := 0
	rob.Release(func(network.Flit) { n++ })
	if n != 1 {
		t.Fatal("best-effort flit should release regardless of SN")
	}
}

// TestROBMaxOccupancy tracks the high-water mark.
func TestROBMaxOccupancy(t *testing.T) {
	rob := NewROB(1)
	pkt := mkPkt(16, network.ClassBestEffort)
	for i := 3; i >= 1; i-- { // VSN 3,2,1 — all blocked on 0
		rob.Insert(flitOf(pkt, int(i), 0), 0, uint16(i))
	}
	if rob.MaxOccupancy() != 3 {
		t.Fatalf("max occupancy %d, want 3", rob.MaxOccupancy())
	}
	rob.Insert(flitOf(pkt, 0, 0), 0, 0)
	rob.Release(func(network.Flit) {})
	if rob.Occupancy() != 0 || rob.MaxOccupancy() != 4 {
		t.Fatalf("occupancy %d / max %d after drain, want 0 / 4", rob.Occupancy(), rob.MaxOccupancy())
	}
}

// TestROBRetryInducedReordering covers the arrival patterns the link-layer
// retry protocol creates: a go-back-N rewind delays a contiguous run of
// early-VSN flits behind later ones, and a failover rescue replays stuck
// serial flits (original VSNs) after parallel flits already arrived. The
// ROB must hold the late arrivals and release everything in VSN order.
func TestROBRetryInducedReordering(t *testing.T) {
	pkt := mkPkt(16, network.ClassBestEffort)
	pin := mkPkt(16, network.ClassInOrder)
	for _, tc := range []struct {
		name string
		pkt  *network.Packet
		// arrival order of VSNs (single VC); SN == VSN for in-order class
		arrive []uint16
	}{
		{"retry-delays-window-head", pkt, []uint16{2, 3, 4, 5, 0, 1, 6, 7}},
		{"rescue-replays-stuck-run", pkt, []uint16{4, 5, 6, 7, 0, 1, 2, 3}},
		{"interleaved-rewinds", pkt, []uint16{1, 0, 3, 2, 5, 4, 7, 6}},
		{"in-order-class-rescue", pin, []uint16{4, 5, 6, 7, 0, 1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rob := NewROB(2)
			var got []uint16
			for _, vsn := range tc.arrive {
				rob.Insert(flitOf(tc.pkt, int(vsn), 0), vsn, vsn)
				rob.Release(func(f network.Flit) { got = append(got, f.Seq) })
			}
			if len(got) != len(tc.arrive) {
				t.Fatalf("released %d of %d flits", len(got), len(tc.arrive))
			}
			for i, v := range got {
				if v != uint16(i) {
					t.Fatalf("release order broken at %d: VSN %d", i, v)
				}
			}
			if rob.Occupancy() != 0 {
				t.Fatalf("occupancy %d after drain", rob.Occupancy())
			}
		})
	}
}

// TestROBSequenceWraparound: the VSN and SN counters are uint16 — every
// adapter crosses the wrap once per 65,536 flits of any run — and release
// order must survive a stream straddling it on both the per-VC and the
// global in-order sequence.
func TestROBSequenceWraparound(t *testing.T) {
	const n = 8
	start := ^uint16(0) - 2 // three before the wrap
	rob := NewROB(2)
	rob.nextVSN[0] = start
	rob.nextSN = start
	pkt := mkPkt(n, network.ClassInOrder)
	// Shuffled arrival order spanning the wrap: VSNs start..start+7.
	for _, off := range []uint16{3, 1, 0, 5, 2, 4, 7, 6} {
		vsn := start + off
		rob.Insert(flitOf(pkt, int(off), 0), vsn, vsn)
	}
	var got []uint16
	rob.Release(func(f network.Flit) { got = append(got, start+f.Seq) })
	if len(got) != n {
		t.Fatalf("released %d of %d flits across the VSN wrap", len(got), n)
	}
	for i, v := range got {
		if v != start+uint16(i) {
			t.Fatalf("wraparound broke release order at %d: VSN %d, want %d", i, v, start+uint16(i))
		}
	}
	if rob.nextVSN[0] != start+n || rob.nextSN != start+n {
		t.Fatalf("counters did not wrap cleanly: nextVSN %d, nextSN %d", rob.nextVSN[0], rob.nextSN)
	}
}

// TestROBPropertyWrapStart: random permutations released from a random
// start offset near the wrap — the wraparound analogue of
// TestROBPropertyRandomArrivalOrder.
func TestROBPropertyWrapStart(t *testing.T) {
	f := func(seed int64, nFlits, offset uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nFlits%24) + 2
		start := ^uint16(0) - uint16(offset%16)
		pkt := mkPkt(n, network.ClassBestEffort)
		perm := rng.Perm(n)
		rob := NewROB(1)
		rob.nextVSN[0] = start
		var released []uint16
		for _, i := range perm {
			rob.Insert(flitOf(pkt, int(i), 0), 0, start+uint16(i))
			rob.Release(func(f network.Flit) { released = append(released, start+f.Seq) })
		}
		if len(released) != n || rob.Occupancy() != 0 {
			return false
		}
		for i, v := range released {
			if v != start+uint16(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestROBPropertyRandomArrivalOrder: for any permutation of a two-VC flit
// stream, release order per VC equals VSN order and every flit is released
// exactly once.
func TestROBPropertyRandomArrivalOrder(t *testing.T) {
	f := func(seed int64, nA, nB uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := int(nA%24)+1, int(nB%24)+1
		pktA := mkPkt(a, network.ClassBestEffort)
		pktB := mkPkt(b, network.ClassBestEffort)
		var flits []network.Flit
		for i := 0; i < a; i++ {
			flits = append(flits, flitOf(pktA, int(i), 0))
		}
		for i := 0; i < b; i++ {
			flits = append(flits, flitOf(pktB, int(i), 1))
		}
		rng.Shuffle(len(flits), func(i, j int) { flits[i], flits[j] = flits[j], flits[i] })
		rob := NewROB(2)
		var released []network.Flit
		for _, fl := range flits {
			rob.Insert(fl, 0, fl.Seq) // VSN == Seq: one packet per VC
			rob.Release(func(x network.Flit) { released = append(released, x) })
		}
		if len(released) != a+b {
			return false
		}
		nextVSN := [2]uint16{}
		for _, fl := range released {
			if fl.Seq != nextVSN[fl.VC] {
				return false
			}
			nextVSN[fl.VC]++
		}
		return rob.Occupancy() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
