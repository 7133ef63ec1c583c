package network

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestFlitSize pins the size of every structure a built network has one
// of per ring slot, VC, port, link or router (DESIGN.md, "Bytes per node",
// multiplies them out). A Flit fills every input-VC ring slot, so it must
// stay 8 bytes and pointer-free: no field the GC would have to scan, and
// the rings are neither scanned nor cleared on release. A VCState must fit
// one cache line; the port, link and router structs are held to the sizes
// they were packed to.
func TestFlitSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"Flit", unsafe.Sizeof(Flit{}), 8},
		{"VCState", unsafe.Sizeof(VCState{}), 64},
		{"InPort", unsafe.Sizeof(InPort{}), 40},
		{"OutPort", unsafe.Sizeof(OutPort{}), 72},
		{"Link", unsafe.Sizeof(Link{}), 152},
		{"Router", unsafe.Sizeof(Router{}), 416},
	} {
		t.Logf("unsafe.Sizeof(network.%s{}) = %d bytes", c.name, c.size)
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.size, c.max)
		}
	}
	if size := unsafe.Sizeof(Flit{}); size != 8 {
		t.Fatalf("Flit is %d bytes, want 8", size)
	}
	ft := reflect.TypeOf(Flit{})
	for i := 0; i < ft.NumField(); i++ {
		switch f := ft.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.String:
			t.Fatalf("Flit field %s is a %v: the rings must stay pointer-free", f.Name, f.Type.Kind())
		}
	}
}

// testPackets returns a network with two nodes to make packets from.
func testPackets(t *testing.T) *Network {
	t.Helper()
	net, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	net.AddNodes(2)
	return net
}

func TestFlitQueueBasics(t *testing.T) {
	q := NewFlitQueue(3)
	if !q.Empty() || q.Len() != 0 || q.Cap() != 3 || q.Free() != 3 {
		t.Fatalf("fresh queue state wrong: len=%d cap=%d free=%d", q.Len(), q.Cap(), q.Free())
	}
	ref := testPackets(t).NewPacket(0, 1, 4, 0).ref
	for i := 0; i < 3; i++ {
		if !q.Push(Flit{P: ref, Seq: uint16(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Push(Flit{P: ref, Seq: 3}) {
		t.Fatal("push into full queue succeeded")
	}
	if got := q.Front().Seq; got != 0 {
		t.Fatalf("front seq = %d, want 0", got)
	}
	if got := q.At(2).Seq; got != 2 {
		t.Fatalf("At(2) seq = %d, want 2", got)
	}
	for i := 0; i < 3; i++ {
		if got := q.Front().Seq; got != uint16(i) {
			t.Fatalf("pop %d returned seq %d", i, got)
		}
		q.Drop(1)
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
	ref := testPackets(t).NewPacket(0, 1, 2, 0).ref
	q.Push(Flit{P: ref})
	q.Push(Flit{P: ref, Seq: 1})
	q.Reset()
	if !q.Empty() || q.Free() != 4 {
		t.Fatalf("reset left len=%d free=%d", q.Len(), q.Free())
	}
}

// TestFlitQueueFIFOProperty drives random push/pop sequences against a
// slice reference model.
func TestFlitQueueFIFOProperty(t *testing.T) {
	pkt := testPackets(t).NewPacket(0, 1, MaxPacketLength, 0).ref
	f := func(ops []bool, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewFlitQueue(8)
		var ref []uint16
		next := uint16(0)
		for _, push := range ops {
			if push {
				ok := q.Push(Flit{P: pkt, Seq: next})
				if ok != (len(ref) < 8) {
					return false
				}
				if ok {
					ref = append(ref, next)
					next++
				}
			} else if len(ref) > 0 {
				if got := q.Front().Seq; got != ref[0] {
					return false
				}
				q.Drop(1)
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
	net := testPackets(t)
	pkt := net.NewPacket(0, 1, 3, 0)
	if (Flit{P: pkt.ref, Seq: 0}).Seq != 0 {
		t.Error("seq 0 should be head")
	}
	if f := (Flit{P: pkt.ref, Seq: 1}); f.Seq == 0 || f.IsTail(pkt) {
		t.Error("seq 1 of 3 should be body")
	}
	if !(Flit{P: pkt.ref, Seq: 2}).IsTail(pkt) {
		t.Error("seq 2 of 3 should be tail")
	}
	single := net.NewPacket(0, 1, 1, 0)
	f := Flit{P: single.ref, Seq: 0}
	if f.Seq != 0 || !f.IsTail(single) {
		t.Error("single-flit packet should be head and tail")
	}
}
