package network

import (
	"fmt"
	"sync/atomic"
)

// PacketRef names a packet in its network's packet table. The zero ref
// names no packet.
type PacketRef uint32

// PacketTable owns every packet of one network. Packets sit in fixed-size
// chunks, so a *Packet stays valid for the packet's whole life while a flit
// carries only the 32-bit ref; a delivered packet's ref is freed once Sink
// and OnDeliver have returned, and NewPacket reuses it. The chunks hold no
// pointers, so the GC never scans them.
//
// Refs are handed out and freed only outside the engine phases (drivers,
// Sink, OnDeliver), so shards resolve refs concurrently without locks.
type PacketTable struct {
	chunks [][]Packet
	free   []PacketRef
	next   PacketRef // lowest ref never handed out; 0 is reserved
}

// pktChunkShift sets the chunk size: 1024 packets, about 140 KB.
const pktChunkShift = 10

// get resolves a ref this table handed out.
func (t *PacketTable) get(ref PacketRef) *Packet {
	return &t.chunks[ref>>pktChunkShift][ref&(1<<pktChunkShift-1)]
}

// alloc returns a free ref, growing the table by a chunk when none is.
func (t *PacketTable) alloc() PacketRef {
	if n := len(t.free); n > 0 {
		ref := t.free[n-1]
		t.free = t.free[:n-1]
		return ref
	}
	if t.next == 0 {
		t.next = 1
	}
	ref := t.next
	if int(ref>>pktChunkShift) == len(t.chunks) {
		t.chunks = append(t.chunks, make([]Packet, 1<<pktChunkShift))
	}
	t.next++
	return ref
}

// owns reports whether p is the packet this table stores under p's ref.
func (t *PacketTable) owns(p *Packet) bool {
	return p.ref != 0 && p.ref < t.next && t.get(p.ref) == p
}

// Charge counts n traversals of a channel of kind k on the packet ref
// names; only on-chip wires and the two PHY kinds carry energy. Hetero-PHY
// adapters charge each issue, retry pipes their retransmissions. The add is
// atomic: flits of one packet may cross links of different shards in the
// same phase.
func (t *PacketTable) Charge(ref PacketRef, k LinkKind, n uint64) {
	if k <= KindSerial {
		atomic.AddUint64(&t.get(ref).tx[k], n)
	}
}

// NewPacket returns a packet with the next ID (IDs are dense from 1) in a
// free slot of the packet table — the slot of a delivered packet when one
// is free. The caller fills the class, then Offers it. Sink and OnDeliver
// must not retain the *Packet past their call: its slot is reused.
// Config.Validate, Trace.Validate and NewReplayer keep lengths in range on
// the built-in paths, so an out-of-range one here is a caller's bug and
// panics.
func (net *Network) NewPacket(src, dst NodeID, length int, createdAt int64) *Packet {
	if length <= 0 || length > MaxPacketLength {
		panic(fmt.Sprintf("network: packet length %d out of range [1,%d] (flit Seq is 16-bit)", length, MaxPacketLength))
	}
	net.nextPktID++
	ref := net.pkts.alloc()
	p := net.pkts.get(ref)
	*p = Packet{
		ID:        net.nextPktID,
		Src:       src,
		Dst:       dst,
		Length:    length,
		CreatedAt: createdAt,
		ArrivedAt: -1,
		Target:    -1,
		ref:       ref,
	}
	return p
}

// Packet resolves the ref a flit carries to its packet.
func (net *Network) Packet(ref PacketRef) *Packet { return net.pkts.get(ref) }

// Packets returns the network's packet table, for adapters and retry pipes
// that charge traversals to packets.
func (net *Network) Packets() *PacketTable { return &net.pkts }
