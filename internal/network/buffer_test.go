package network

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestFlitSize: every ring slot of every input VC is a Flit, and the rings
// are most of a large network's heap (76 of 96 MB on the 3136-node system
// when the struct was 48 bytes), so it must not regrow unnoticed.
func TestFlitSize(t *testing.T) {
	if bits.UintSize != 64 {
		t.Skip("the bound is stated for 64-bit pointers")
	}
	size := unsafe.Sizeof(Flit{})
	t.Logf("unsafe.Sizeof(network.Flit{}) = %d bytes", size)
	if size > 24 {
		t.Fatalf("Flit is %d bytes, want <= 24", size)
	}
}

func TestFlitQueueBasics(t *testing.T) {
	q := NewFlitQueue(3)
	if !q.Empty() || q.Len() != 0 || q.Cap() != 3 || q.Free() != 3 {
		t.Fatalf("fresh queue state wrong: len=%d cap=%d free=%d", q.Len(), q.Cap(), q.Free())
	}
	pkt := &Packet{ID: 1, Length: 4}
	for i := 0; i < 3; i++ {
		if !q.Push(Flit{Pkt: pkt, Seq: int32(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Push(Flit{Pkt: pkt, Seq: 3}) {
		t.Fatal("push into full queue succeeded")
	}
	if got := q.Front().Seq; got != 0 {
		t.Fatalf("front seq = %d, want 0", got)
	}
	if got := q.At(2).Seq; got != 2 {
		t.Fatalf("At(2) seq = %d, want 2", got)
	}
	for i := 0; i < 3; i++ {
		if got := q.Pop().Seq; got != int32(i) {
			t.Fatalf("pop %d returned seq %d", i, got)
		}
	}
	if !q.Empty() {
		t.Fatal("queue not empty after draining")
	}
}

func TestFlitQueueZeroCapacityClamped(t *testing.T) {
	q := NewFlitQueue(0)
	if q.Cap() != 1 {
		t.Fatalf("capacity %d, want clamp to 1", q.Cap())
	}
}

func TestFlitQueueReset(t *testing.T) {
	q := NewFlitQueue(4)
	pkt := &Packet{ID: 2, Length: 2}
	q.Push(Flit{Pkt: pkt})
	q.Push(Flit{Pkt: pkt, Seq: 1})
	q.Reset()
	if !q.Empty() || q.Free() != 4 {
		t.Fatalf("reset left len=%d free=%d", q.Len(), q.Free())
	}
}

// TestFlitQueueFIFOProperty drives random push/pop sequences against a
// slice reference model.
func TestFlitQueueFIFOProperty(t *testing.T) {
	f := func(ops []bool, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewFlitQueue(8)
		var ref []int32
		next := int32(0)
		pkt := &Packet{ID: 9, Length: 1 << 30}
		for _, push := range ops {
			if push {
				ok := q.Push(Flit{Pkt: pkt, Seq: next})
				if ok != (len(ref) < 8) {
					return false
				}
				if ok {
					ref = append(ref, next)
					next++
				}
			} else if len(ref) > 0 {
				if got := q.Pop().Seq; got != ref[0] {
					return false
				}
				ref = ref[1:]
			}
			if q.Len() != len(ref) {
				return false
			}
			_ = rng
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFlitHeadTail(t *testing.T) {
	pkt := &Packet{ID: 1, Length: 3}
	if !(Flit{Pkt: pkt, Seq: 0}).IsHead() {
		t.Error("seq 0 should be head")
	}
	if (Flit{Pkt: pkt, Seq: 1}).IsHead() || (Flit{Pkt: pkt, Seq: 1}).IsTail() {
		t.Error("seq 1 of 3 should be body")
	}
	if !(Flit{Pkt: pkt, Seq: 2}).IsTail() {
		t.Error("seq 2 of 3 should be tail")
	}
	single := &Packet{ID: 2, Length: 1}
	f := Flit{Pkt: single, Seq: 0}
	if !f.IsHead() || !f.IsTail() {
		t.Error("single-flit packet should be head and tail")
	}
}
