// Package network implements the cycle-accurate multi-chiplet NoC
// simulation substrate used by every experiment in the heteroif library:
// flits and packets, virtual-channel input buffers with credit-based flow
// control, bandwidth×delay link pipelines, the canonical four-stage
// virtual-channel router (with the higher-radix interface-port extension of
// the paper's heterogeneous router), and the synchronous two-phase cycle
// engine.
//
// The model follows Sec. 7.1 of the paper: routing, VC allocation and switch
// allocation complete in a single cycle at zero load; on-chip transmission
// takes one cycle; cross-chiplet interfaces are modeled as behavioral
// pipelines in the on-chip clock domain (one pipeline stage per cycle of
// interface latency, bandwidth-many flits per stage).
//
// The cycle engine is activity-tracked: wake lists (busy links) and wake
// bitmaps (routers with buffered flits, sources with queued packets) limit
// each cycle to components that can make progress, and RunWith
// fast-forwards the clock across stretches where the network is provably
// idle. Both optimizations preserve bit-identical results for every seed
// and worker count. The invariants that make this safe:
//
//   - A component off its wake list would have been a no-op to visit: an
//     idle link advances nothing, an empty router tick and an empty source
//     scan change no state.
//   - Wake structures are scanned in ascending index order, so iteration
//     order among the components actually visited — and therefore
//     floating-point accumulation order in the packet sink — matches the
//     dense loops exactly.
//   - Fast-forward requires full quiescence: flitsIn == flitsOut AND every
//     wake list empty (an in-flight credit blocks idleness), and never a
//     deadlocked state (flitsIn > flitsOut), so the watchdog still trips
//     at the unoptimized cycle. Drivers that must observe every cycle pass
//     a nil next-injection callback, which disables skipping.
//   - The engine always steps shards (contiguous node ranges;
//     Config.Workers from Finalize — 0 picks by system size — and n after
//     SetWorkers(n)): link phase on every shard, then
//     router+injection phase on every shard, then a single-threaded merge
//     in shard order. Shard bounds fall on 64-node wake-word boundaries
//     (at chiplet-row cuts where those are aligned), so every wake-bitmap
//     word has exactly one owning shard, and cross-shard wake-ups travel
//     through per-shard scratch applied by the merge.
package network

import "fmt"

// NodeID identifies a router/node in the network.
type NodeID int32

// VCID identifies a virtual channel within a physical channel.
type VCID int8

// Class is a traffic class carried by a packet. It determines ordering
// requirements and scheduling treatment at heterogeneous interfaces
// (Sec. 5.3.2, application-aware scheduling).
type Class uint8

const (
	// ClassBestEffort packets have no ordering requirement across packets;
	// their flits may bypass the reorder buffer at the parallel PHY.
	ClassBestEffort Class = iota
	// ClassInOrder packets require strict link-level ordering (e.g. cache
	// coherence traffic); their flits always pass through the reorder
	// buffer in sequence-number order.
	ClassInOrder
	// ClassLatencySensitive packets are high-priority control messages; an
	// application-aware adapter prefers the low-latency parallel PHY and
	// allows bypass (Sec. 5.3.2 "active" scheduling).
	ClassLatencySensitive
	// ClassThroughput packets are bulk data; an application-aware adapter
	// prefers the high-bandwidth serial PHY.
	ClassThroughput
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassBestEffort:
		return "best-effort"
	case ClassInOrder:
		return "in-order"
	case ClassLatencySensitive:
		return "latency-sensitive"
	case ClassThroughput:
		return "throughput"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Subnet identifies which interface subnetwork a hetero-channel packet
// prefers, as selected by Eq. 5 of the paper.
type Subnet uint8

const (
	// SubnetAny leaves the choice to the adaptive router.
	SubnetAny Subnet = iota
	// SubnetParallel prefers the parallel-IF-based mesh subnetwork.
	SubnetParallel
	// SubnetSerial prefers the serial-IF-based cube subnetwork.
	SubnetSerial
)

// Packet is a multi-flit message traversing the network. Packets live in
// their network's packet table (NewPacket); flits name their packet by
// PacketRef and per-packet routing state lives here.
type Packet struct {
	ID     uint64
	Src    NodeID
	Dst    NodeID
	Length int // flits

	Class Class

	// CreatedAt is the cycle the packet was offered to the source queue
	// (the trace/injection time). InjectedAt is the cycle its head flit
	// entered the injection port. ArrivedAt is the cycle its tail flit was
	// ejected at the destination.
	CreatedAt  int64
	InjectedAt int64
	ArrivedAt  int64

	// Restricted is set by the livelock channel-switch restriction of
	// Sec. 6.2: once a packet falls back to the escape subnetwork because
	// the adaptive channels on its minimal paths were congested, it may
	// only use adaptive channels that lie on paths given by the baseline
	// routing function.
	Restricted bool

	// Pref is the subnetwork preference computed by the Eq. 5 selection
	// function at injection (hetero-channel systems only).
	Pref Subnet

	// Target is routing scratch: the intra-chiplet waypoint (the interface
	// node owning the next off-chip link the packet is steering toward),
	// or -1 when unset. Hypercube-based routing functions maintain it.
	Target NodeID

	// Per-channel-class hop counters, used by the energy model and the
	// weighted-path-length accounting.
	HopsOnChip   int32
	HopsParallel int32
	HopsSerial   int32
	HopsHetero   int32 // hops over bonded hetero-PHY interfaces

	// EnergyPJ is the energy spent moving this packet, in picojoules (links
	// + router traversals), per Sec. 8.3. EnergyOnChipPJ is the on-chip
	// share (NoC wires + router traversals); EnergyIfacePJ the die-to-die
	// interface share. All three are zero until the tail flit is ejected
	// and settleEnergy derives them, once.
	EnergyPJ       float64
	EnergyOnChipPJ float64
	EnergyIfacePJ  float64

	// ref names the packet's slot in its network's packet table; 0 for a
	// packet NewPacket did not make.
	ref PacketRef

	// tx counts the flit traversals per energy class (indexed by
	// KindOnChip, KindParallel, KindSerial) that the hop counters do not
	// imply: hetero-PHY adapters add each issue to the PHY they picked, a
	// retry pipe the retransmissions a delivery needed (PacketTable.Charge).
	// Integer sums commute, so shards add in any order — atomically, since
	// two links may carry flits of one packet in the same phase.
	tx [energyClasses]uint64
}

// energyClasses is the number of channel kinds a traversal is charged to:
// on-chip wire, parallel PHY, serial PHY. A hetero-PHY link charges the PHY
// its adapter picked; local ports cost nothing.
const energyClasses = int(KindSerial) + 1

// maxPacketHops bounds a packet's hop count; a packet that reaches it is a
// routing livelock and ends the run (Router.headHop). Minimal routing is
// three orders of magnitude below it.
const maxPacketHops = 1<<16 - 1

// MaxPacketLength is the longest packet a flit's 16-bit Seq can index.
// Config.Validate, Trace.Validate and NewReplayer refuse longer ones.
const MaxPacketLength = 1<<16 - 1

// Ref returns the packet's ref in its network's packet table: what its
// flits carry.
func (p *Packet) Ref() PacketRef { return p.ref }

// Hops returns the total number of hops taken so far.
func (p *Packet) Hops() int {
	return int(p.HopsOnChip + p.HopsParallel + p.HopsSerial + p.HopsHetero)
}

// settleEnergy expands the traversal counts to picojoules. It runs once per
// packet, in the single-threaded merge after the tail flit was ejected, when
// every count is final. Each of the Length flits crossed the Hops()+1
// routers of the head's path and every plain link on it exactly once (all
// flits follow the head), so the hop counters give the first traversals of
// on-chip wires and parallel/serial links; tx holds the hetero-PHY issues
// and every retransmission. EnergyPJ is the exact sum of the two shares.
func (p *Packet) settleEnergy(cfg *Config) {
	n := uint64(p.Length)
	onChip := p.tx[KindOnChip] + n*uint64(p.HopsOnChip)
	parallel := p.tx[KindParallel] + n*uint64(p.HopsParallel)
	serial := p.tx[KindSerial] + n*uint64(p.HopsSerial)
	routers := float64(p.Length * (p.Hops() + 1))
	p.EnergyOnChipPJ = routers*cfg.RouterPJPerFlit + float64(onChip)*cfg.FlitPJ(KindOnChip)
	p.EnergyIfacePJ = float64(parallel)*cfg.FlitPJ(KindParallel) + float64(serial)*cfg.FlitPJ(KindSerial)
	p.EnergyPJ = p.EnergyOnChipPJ + p.EnergyIfacePJ
}

// Flit is one flow-control unit of a packet. Flits are passed by value and
// hold no pointer: every input-VC ring is an array of Flits, the rings are
// most of a large network's heap, and pointer-free rings are neither
// scanned by the GC nor cleared on release (TestFlitSize pins both).
// Hetero-PHY sequence stamps live beside the flit inside the adapter, and
// energy is counted on the packet.
type Flit struct {
	P   PacketRef // the packet, resolved through Network.Packet
	Seq uint16    // flit index within the packet: 0 = head, Length-1 = tail
	VC  VCID      // VC assigned on the channel currently being traversed
	// Class is the packet's traffic class, copied at injection so adapters,
	// reorder buffers and dispatch policies never resolve the packet.
	Class Class
}

// IsTail reports whether f is the tail flit of p, its packet.
func (f Flit) IsTail(p *Packet) bool { return int(f.Seq) == p.Length-1 }
