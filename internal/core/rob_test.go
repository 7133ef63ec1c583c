package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"heteroif/internal/network"
)

func mkPkt(id uint64, length int, class network.Class) *network.Packet {
	return &network.Packet{ID: id, Length: length, Class: class, Target: -1}
}

// TestROBPerVCOrder: flits of one VC inserted out of order are released in
// VSN order.
func TestROBPerVCOrder(t *testing.T) {
	rob := NewROB(2)
	pkt := mkPkt(1, 4, network.ClassBestEffort)
	// Insert VSN 2, 0, 3, 1 on VC 0.
	for _, vsn := range []uint16{2, 0, 3, 1} {
		rob.Insert(network.Flit{Pkt: pkt, Seq: int32(vsn), VC: 0, VSN: vsn})
	}
	var got []uint16
	rob.Release(func(f network.Flit) { got = append(got, f.VSN) })
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
	pkt := mkPkt(1, 8, network.ClassBestEffort)
	rob.Insert(network.Flit{Pkt: pkt, Seq: 1, VC: 0, VSN: 1}) // gap: VSN 0 missing
	rob.Insert(network.Flit{Pkt: pkt, Seq: 5, VC: 1, VSN: 0})
	var got []network.Flit
	rob.Release(func(f network.Flit) { got = append(got, f) })
	if len(got) != 1 || got[0].VC != 1 {
		t.Fatalf("expected only the VC-1 flit to release, got %v", got)
	}
	// Fill the gap; both release in order.
	rob.Insert(network.Flit{Pkt: pkt, Seq: 0, VC: 0, VSN: 0})
	got = got[:0]
	rob.Release(func(f network.Flit) { got = append(got, f) })
	if len(got) != 2 || got[0].VSN != 0 || got[1].VSN != 1 {
		t.Fatalf("gap fill release wrong: %v", got)
	}
}

// TestROBInOrderClassWaitsForGlobalSN: an in-order flit with a later global
// SN must wait for earlier in-order flits even on another VC.
func TestROBInOrderClassWaitsForGlobalSN(t *testing.T) {
	rob := NewROB(2)
	p0 := mkPkt(1, 2, network.ClassInOrder)
	p1 := mkPkt(2, 2, network.ClassInOrder)
	// SN 1 arrives first (VC 1); SN 0 (VC 0) is still in flight.
	rob.Insert(network.Flit{Pkt: p1, Seq: 0, VC: 1, VSN: 0, SN: 1})
	var got []network.Flit
	rob.Release(func(f network.Flit) { got = append(got, f) })
	if len(got) != 0 {
		t.Fatalf("in-order flit released before its predecessor: %v", got)
	}
	rob.Insert(network.Flit{Pkt: p0, Seq: 0, VC: 0, VSN: 0, SN: 0})
	rob.Release(func(f network.Flit) { got = append(got, f) })
	if len(got) != 2 || got[0].SN != 0 || got[1].SN != 1 {
		t.Fatalf("in-order release sequence wrong: %v", got)
	}
}

// TestROBBestEffortSkipsGlobalSN: best-effort flits ignore the global SN
// stream.
func TestROBBestEffortSkipsGlobalSN(t *testing.T) {
	rob := NewROB(2)
	pkt := mkPkt(1, 2, network.ClassBestEffort)
	rob.Insert(network.Flit{Pkt: pkt, Seq: 0, VC: 0, VSN: 0, SN: 99})
	n := 0
	rob.Release(func(network.Flit) { n++ })
	if n != 1 {
		t.Fatal("best-effort flit should release regardless of SN")
	}
}

// TestROBMaxOccupancy tracks the high-water mark.
func TestROBMaxOccupancy(t *testing.T) {
	rob := NewROB(1)
	pkt := mkPkt(1, 16, network.ClassBestEffort)
	for i := 3; i >= 1; i-- { // VSN 3,2,1 — all blocked on 0
		rob.Insert(network.Flit{Pkt: pkt, Seq: int32(i), VC: 0, VSN: uint16(i)})
	}
	if rob.MaxOccupancy() != 3 {
		t.Fatalf("max occupancy %d, want 3", rob.MaxOccupancy())
	}
	rob.Insert(network.Flit{Pkt: pkt, Seq: 0, VC: 0, VSN: 0})
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
	pkt := mkPkt(1, 16, network.ClassBestEffort)
	pin := mkPkt(2, 16, network.ClassInOrder)
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
				rob.Insert(network.Flit{Pkt: tc.pkt, Seq: int32(vsn), VC: 0, VSN: vsn, SN: vsn})
				rob.Release(func(f network.Flit) { got = append(got, f.VSN) })
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
	pkt := mkPkt(1, n, network.ClassInOrder)
	// Shuffled arrival order spanning the wrap: VSNs start..start+7.
	for _, off := range []uint16{3, 1, 0, 5, 2, 4, 7, 6} {
		vsn := start + off
		rob.Insert(network.Flit{Pkt: pkt, Seq: int32(off), VC: 0, VSN: vsn, SN: vsn})
	}
	var got []uint16
	rob.Release(func(f network.Flit) { got = append(got, f.VSN) })
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
		pkt := mkPkt(1, n, network.ClassBestEffort)
		perm := rng.Perm(n)
		rob := NewROB(1)
		rob.nextVSN[0] = start
		var released []uint16
		for _, i := range perm {
			rob.Insert(network.Flit{Pkt: pkt, Seq: int32(i), VC: 0, VSN: start + uint16(i)})
			rob.Release(func(f network.Flit) { released = append(released, f.VSN) })
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
		pktA := mkPkt(1, a, network.ClassBestEffort)
		pktB := mkPkt(2, b, network.ClassBestEffort)
		var flits []network.Flit
		for i := 0; i < a; i++ {
			flits = append(flits, network.Flit{Pkt: pktA, Seq: int32(i), VC: 0, VSN: uint16(i)})
		}
		for i := 0; i < b; i++ {
			flits = append(flits, network.Flit{Pkt: pktB, Seq: int32(i), VC: 1, VSN: uint16(i)})
		}
		rng.Shuffle(len(flits), func(i, j int) { flits[i], flits[j] = flits[j], flits[i] })
		rob := NewROB(2)
		var released []network.Flit
		for _, fl := range flits {
			rob.Insert(fl)
			rob.Release(func(x network.Flit) { released = append(released, x) })
		}
		if len(released) != a+b {
			return false
		}
		nextVSN := [2]uint16{}
		for _, fl := range released {
			if fl.VSN != nextVSN[fl.VC] {
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
