package network

import (
	"fmt"
	"math"
	"math/bits"
)

// Candidate is one output channel option produced by a routing function:
// an output port plus the set of virtual channels the packet may request on
// it. Escape marks channels belonging to the baseline deadlock-free
// subnetwork C0 (Algorithm 1, line 5): they are always safe to take, while
// non-escape (adaptive) channels are preferred shortcuts.
type Candidate struct {
	Port   int
	VCMask uint16
	Escape bool
}

// Routing computes candidate output channels for a packet whose head flit
// sits at router r, having arrived through input port inPort (the injection
// port for freshly injected packets). Implementations append to buf and
// return it, to avoid per-call allocation. Candidates must be ordered by
// preference; the router picks the first allocatable one. Routing functions
// must guarantee that at least one escape candidate is connected toward the
// destination (Lemma 1).
//
// On a sharded network (Config.Workers, by default every system of 1,024
// nodes or more on a multi-CPU host) the routers of different shards call
// Route at the same time, one goroutine per shard, so Route must be safe
// for concurrent use: it may read the network and the packet, but any
// state of its own (a cache, a counter) must be synchronised or set up
// before the first Step.
type Routing interface {
	Route(net *Network, r *Router, inPort int, pkt *Packet, buf []Candidate) []Candidate
	Name() string
}

// RouteStability classifies how much of a routing function's output the
// engine may reuse without re-invoking Route. It is the contract behind the
// RC memoization in allocate, which must keep results bit-identical to
// calling Route every cycle.
type RouteStability uint8

const (
	// RouteDynamic gives no reuse guarantee: Route may consult mutable
	// network state (congestion, occupancy), so the engine re-evaluates it
	// every cycle a head flit waits for VC allocation.
	RouteDynamic RouteStability = iota

	// RouteRetryStable guarantees that repeated Route calls for the same
	// packet waiting at the same router return identical candidates as long
	// as the packet's Restricted flag is unchanged, and that any packet
	// mutations Route performs are either confined to fields in that key
	// (Restricted) or idempotent across calls (e.g. the Target waypoint,
	// fixed once per chiplet). The engine may then cache the candidate set
	// on the input VC across VA-retry cycles and skip the retry entirely
	// when nothing the allocator reads (output credits, Held bits) has
	// changed since the last failure. Topology faults must be injected
	// before the first Step.
	RouteRetryStable
)

// Stable is the optional capability interface of Routing implementations
// that declare a reuse contract. Stability is consulted once, by Finalize,
// so the routing is chosen before it. Algorithms that do not implement it
// are treated as RouteDynamic.
type Stable interface {
	Routing
	Stability() RouteStability
}

// VCState is one virtual-channel input buffer and its allocation state,
// one cache line (TestFlitSize): the queue is embedded by value and every
// router's VCStates are one window of a per-network slab (materialise),
// indexed by flattened slot, so the switch stage reads occupancy and head
// state from the slot itself instead of chasing a *FlitQueue. The narrow
// fields hold what Config.Validate bounds: packet lengths and sequence
// numbers (MaxPacketLength), ring cursors (MaxRingDepth) and hop counts
// (maxPacketHops).
type VCState struct {
	Buf FlitQueue

	// headRef/headDst/headHops/headClass/headRestricted denormalize the
	// front head flit's packet ref and routing-relevant fields into the
	// slot (cacheHead), so RC+VA run without reading the ring or the packet
	// table. Dst, Class and Length are immutable for a packet's lifetime,
	// and the hop count only changes when the head leaves; Restricted is
	// mutable, and every engine write while the head waits goes through
	// allocate, which updates both copies (the canonical Packet stays the
	// source of truth for routing functions and diagnostics).
	headRef PacketRef
	headDst NodeID

	// candOff/candLen/candCap locate the slot's RC memo (RouteRetryStable
	// routing; see allocate) in its router's candidate store: candLen
	// candidates at candOff, in a region of candCap (memoize). candsValid
	// is set when the memo holds the candidates of the packet now at the
	// front, with Restricted == candsRestricted; cacheHead clears it for
	// every new head.
	candOff uint32

	// headSeq/headLen cache the front flit's sequence number and its
	// packet's length while the VC holds an output allocation, so switch
	// allocation computes the transferable run without touching the ring
	// data or the Packet. Set by cacheHead when a head flit becomes the
	// front of an inactive VC, advanced by every drain; flits arrive in
	// order, so the cache always matches the front flit of an active VC.
	headSeq  uint16
	headLen  uint16
	headHops uint16

	// Active is true while the packet at the front of Buf holds an output
	// VC; OutPort/OutVC identify it. The allocation is released when the
	// packet's tail flit traverses the switch.
	OutPort int16
	OutVC   VCID
	Active  bool

	// ip is the input port the VC belongs to (its slot over slotVCs).
	ip uint16

	candLen, candCap uint8

	headClass      Class
	headRestricted bool

	candsValid, candsRestricted bool
}

// maxVCs is the most VCs a channel may have (Config.Validate); per-VC port
// state is sized for it.
const maxVCs = 8

// InPort is a router input: the upstream link (nil for the injection port)
// and one buffer per VC.
type InPort struct {
	Link *Link
	VCs  []VCState
	// DrainBudget bounds how many flits this input may push through the
	// crossbar per cycle (the upstream channel bandwidth).
	DrainBudget int32
	Kind        LinkKind
	// Interface marks die-to-die inputs: the heterogeneous router's
	// multi-port input buffer may drain several VCs of such a port in one
	// cycle (Sec. 4.1); regular inputs drain one VC per cycle.
	Interface bool
}

// OutPort is a router output: the downstream link (nil for the ejection
// port), per-VC credit counters and output-VC allocation state. The per-VC
// arrays are sized for maxVCs and live in the port itself: for two VCs that
// is fewer bytes than slice headers alone would take, and no pointer.
type OutPort struct {
	Link *Link
	// Credits tracks free buffer slots per downstream VC.
	Credits [maxVCs]int32

	// waitSlot[v], when ≥ 0, is the flattened input-VC slot holding output
	// VC v whose switch traversal is parked on an empty credit counter; the
	// credit completion that refills it puts the slot back on the ready
	// list.
	waitSlot [maxVCs]int16

	// Depth is the per-VC downstream buffer depth.
	Depth int32

	// heldMask marks output VCs currently allocated to an in-flight packet,
	// so VC allocation rejects every held VC of a candidate in one AND-NOT.
	// vcLimit masks candidate VCMasks down to the VCs that exist (a
	// candidate may name VCs beyond Config.VCs).
	heldMask uint16
	vcLimit  uint16

	Kind LinkKind
	// Interface marks die-to-die outputs: the higher-radix crossbar lets
	// several input VCs feed such an output concurrently (Sec. 4.1);
	// regular outputs accept one input VC per cycle.
	Interface bool

	// slow marks outputs whose link takes a granted run one flit at a time
	// (adapter or retry protocol work in Accept). Derived by
	// Link.bindOutput, so saSlot reads one hot-line flag instead of chasing
	// the Link struct tail.
	slow bool
}

// held reports whether output VC vc is allocated to an in-flight packet.
func (o *OutPort) held(vc int) bool { return o.heldMask&(1<<uint(vc)) != 0 }

// Router is a canonical virtual-channel router (Sec. 7.1), extended at
// interface ports with the paper's heterogeneous-router microarchitecture.
//
// The per-cycle work of a saturated router is found through two bitmaps
// over flattened (input port, VC) slots instead of a full port×VC rescan:
// allocPend marks input VCs whose front flit is a head awaiting RC+VA
// (pushed by deliver, injection, and tail release), saActive marks input
// VCs holding an output allocation (maintained by allocate and the switch
// stage). A bit off either map is always a slot whose visit would have
// been a no-op, and bitmap scans yield the same ascending slot order as
// the dense loops of DESIGN.md's cycle semantics, so results stay
// bit-identical — FuzzRefModel checks that claim against a dense model.
//
// Until Finalize a router's ports are declarations only: Connect counts
// them (nIn, nOut) and the links name their indices. Finalize gives the
// ports, VC states, rings and work state their storage, in router order
// (materialise); In and Out are nil before.
type Router struct {
	ID  NodeID
	In  []InPort
	Out []OutPort

	// vcs is every input VC of the router by flattened slot: vcs[slot] is
	// In[slot/slotVCs].VCs[slot%slotVCs].
	vcs []VCState

	// pkts is the network's packet table, which resolves flit refs.
	pkts *PacketTable

	// InjectPort and EjectPort index the local ports in In and Out.
	InjectPort int
	EjectPort  int

	// nIn and nOut count the declared ports, local ones included.
	nIn, nOut int

	buffered  int // total flits across all input VC buffers (activity)
	activeVCs int // input VCs holding an output allocation
	rr        int // round-robin arbitration pointer

	// slotVCs is the per-port VC count, for slot index arithmetic.
	slotVCs int

	// allocPend and saActive are the work bitmaps over flattened slots
	// described above.
	allocPend []uint64
	saActive  []uint64

	// vaParked holds slots removed from allocPend because their VC
	// allocation provably fails until one of the output ports their
	// candidates name sees a credit arrival or an output-VC release — the
	// only two events that can change a VA outcome. parked[op*words:] (words
	// = len(allocPend)) is the set of slots watching output op; unparkPort
	// moves a port's watchers back to allocPend when either event occurs.
	// vaParkedCount mirrors the bitmap's population so the tick can charge
	// each parked slot its per-cycle VA-failure statistic with one addition
	// (a dense scan would revisit the slot and fail again — same count).
	//
	// saReady is the subset of saActive whose switch traversal can make
	// progress: a slot starved of credits on its allocated output VC drops
	// out (saSlot records it in OutPort.waitSlot) until the refilling
	// credit completes. Parked-slot visits would be no-ops, and blocking
	// conditions are monotone within a cycle, so scanning saReady grants
	// exactly what scanning saActive would.
	vaParked      []uint64
	vaParkedCount int
	saReady       []uint64
	parked        []uint64

	// memo is the candidate store the slots' RC memos point into (see
	// VCState.candOff and memoize), allocated when the router first
	// memoizes.
	memo []cand

	// Switch-allocation early exit: outAvail/inAvail count output and
	// input ports that could still take part in a grant this cycle. Port
	// ineligibility is monotone within a cycle (budgets only shrink, grant
	// counts only grow), so each transition decrements its counter at most
	// once, and when either counter reaches zero every remaining slot visit
	// is provably a no-op — the scan stops without changing which grants
	// happen. inBudgeted is the static number of inputs with a non-zero
	// drain budget (materialise).
	outAvail   int
	inAvail    int
	inBudgeted int

	// Static switch-budget prologue (materialise, Link.bindOutput):
	// outBase[i] is out port i's per-cycle budget at switch-allocation time
	// — ejBW for the ejection port, link Bandwidth for plain links (their
	// accepted counter is always zero when their source router's tick runs;
	// only that tick raises it, and the phase-1 link advance clears it).
	// Ports on adapter/retry links have a truly dynamic budget and are
	// listed in outDyn, in ascending order, for a per-cycle FreeSlots call.
	// outAvailBase counts static ports with a non-zero budget. ejBW is
	// Config.EjectionBandwidth, set by AddNodes and read by Finalize.
	outBase      []int
	outDyn       []int32
	outAvailBase int
	ejBW         int

	// slotOut[slot] is the output port the slot's VC allocation granted
	// (valid while the slot is in saActive; grantVC writes it). The whole
	// array spans a cache line or two at typical radix, so the switch-
	// stage scan rejects slots whose output is spent this cycle without
	// touching their VCState lines.
	slotOut []int16
}

// markPend flags a flattened slot as needing RC+VA.
func (r *Router) markPend(slot int) {
	r.allocPend[slot>>6] |= 1 << (uint(slot) & 63)
}

// cacheHead denormalizes the packet fields of f — the head flit that just
// became the front of vc, an inactive VC — into the slot state (see the
// VCState field docs). Every site where a head reaches the front calls it:
// per-flit delivery into an empty inactive buffer (deliver), plain-link
// publication (commitDirect), injection (via cacheHeadPkt), tail release
// with a successor queued (saSlot). It is the one packet-table lookup of
// a packet's stay at a router. The non-head panic fires here, where the
// flit is already in hand.
func (r *Router) cacheHead(vc *VCState, f *Flit) {
	pkt := r.pkts.get(f.P)
	if f.Seq != 0 {
		panic(fmt.Sprintf("network: non-head flit (pkt %d seq %d) at front of idle VC", pkt.ID, f.Seq))
	}
	vc.cacheHeadPkt(pkt)
}

// cacheHeadPkt is cacheHead for sites that construct the head flit
// themselves (injection: sequence 0 by construction). A new head
// invalidates the slot's RC memo.
func (vc *VCState) cacheHeadPkt(pkt *Packet) {
	vc.headSeq = 0
	vc.headLen = uint16(pkt.Length)
	vc.headRef = pkt.ref
	vc.headDst = pkt.Dst
	vc.headHops = uint16(pkt.Hops())
	vc.headClass = pkt.Class
	vc.headRestricted = pkt.Restricted
	vc.candsValid = false
}

// parkVA moves a slot whose VC allocation just failed from allocPend to
// vaParked, watching every output port in cands (the failure can only be
// undone by a credit arrival or VC release on one of them). Idempotent: a
// slot re-marked by a mid-wait flit delivery re-parks without recounting.
func (r *Router) parkVA(slot int, cands []cand) {
	wi, bit := slot>>6, uint64(1)<<(uint(slot)&63)
	r.allocPend[wi] &^= bit
	if r.vaParked[wi]&bit == 0 {
		r.vaParked[wi] |= bit
		r.vaParkedCount++
	}
	words := len(r.allocPend)
	for i := range cands {
		r.parked[int(cands[i].port)*words+wi] |= bit
	}
}

// unparkPort returns every slot parked on output op to allocPend, called
// on the two events that can flip a VA failure there: a credit arrival and
// an output-VC release. Slots watching several ports are unparked by the
// first event and may leave stale bits in the other ports' masks; the
// vaParked intersection filters those (and bits of since-granted slots)
// out, and the mask reset drops them for good.
func (r *Router) unparkPort(op int) {
	words := len(r.allocPend)
	parked := r.parked[op*words : op*words+words]
	for i, w := range parked {
		if w == 0 {
			continue
		}
		parked[i] = 0
		if m := w & r.vaParked[i]; m != 0 {
			r.allocPend[i] |= m
			r.vaParked[i] &^= m
			r.vaParkedCount -= bits.OnesCount64(m)
		}
	}
}

// deliver buffers a flit arriving from an adapter or retry link at
// port/VC (plain links publish whole staged runs, see commitDirect).
func (r *Router) deliver(inPort int, f Flit) {
	slot := inPort*r.slotVCs + int(f.VC)
	vc := &r.vcs[slot]
	wasEmpty := vc.Buf.Empty()
	if !vc.Buf.Push(f) {
		panic(fmt.Sprintf("network: input buffer overflow at node %d port %d vc %d (credit protocol violated)", r.ID, inPort, f.VC))
	}
	r.buffered++
	if !vc.Active {
		if wasEmpty {
			r.cacheHead(vc, &f)
		}
		r.markPend(slot)
	} else {
		// Refill of an active VC: return it to the switch-stage ready
		// list (saSlot drops drained slots; see its empty check).
		r.saReady[slot>>6] |= 1 << (uint(slot) & 63)
	}
}

// tickContext carries the per-shard accumulation state of one router
// tick.
type tickContext struct {
	net     *Network
	scratch *workerScratch
}

// tickCtx performs RC, VA and SA for one cycle (Sec. 7.1: all three
// complete in a single cycle at zero load).
func (r *Router) tickCtx(ctx *tickContext) {
	if r.buffered == 0 {
		return
	}

	// Slots parked across this cycle fail VA by construction; charge each
	// its per-cycle failure statistic in one addition (a dense scan
	// revisits them and counts one each — same totals every cycle). Phase-1
	// unparks already ran; a phase-2 release unparks after this point and
	// the slot still counts this cycle, exactly like a dense VA scan that
	// runs before switch allocation.
	if r.vaParkedCount > 0 {
		ctx.scratch.vaFailures += uint64(r.vaParkedCount)
	}

	// --- Stage 1+2: routing computation and VC allocation.
	r.vaStage(ctx)

	// --- Stage 3: switch allocation with per-port budgets.
	r.switchAlloc(ctx)
}

// vaStage runs routing computation and VC allocation for every input VC
// whose front flit is a head without an output allocation. The allocPend
// bitmap yields exactly the slots the dense scan would have acted on, in
// the same ascending order. Split out of tickCtx so BenchmarkAllocate can
// measure the stage in isolation.
func (r *Router) vaStage(ctx *tickContext) {
	for wi, w := range r.allocPend {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			slot := wi<<6 + b
			vc := &r.vcs[slot]
			// The non-head panic of the dense scan moved to cacheHead: the
			// slot state read here was denormalized from a checked head.
			r.allocate(ctx, slot, int(vc.ip), vc)
		}
	}
}

// grantVC commits a successful VC allocation for the slot. The head cache
// (headSeq 0, headLen) was populated by cacheHead when the head reached
// the front, so the switch stage starts from it unchanged.
func (r *Router) grantVC(slot int, vc *VCState, port int, outVC VCID) {
	vc.Active, vc.OutPort, vc.OutVC = true, int16(port), outVC
	r.slotOut[slot] = int16(port)
	r.activeVCs++
	r.allocPend[slot>>6] &^= 1 << (uint(slot) & 63)
	r.saActive[slot>>6] |= 1 << (uint(slot) & 63)
	r.saReady[slot>>6] |= 1 << (uint(slot) & 63)
}

// vaFail records a VC-allocation failure (the retry happens next cycle).
// When the routing level guarantees the retry would recompute the same
// candidates, the slot parks on the candidate ports instead of rescanning
// every cycle.
func (r *Router) vaFail(ctx *tickContext, slot int, cands []cand) {
	ctx.scratch.vaFailures++
	if ctx.net.stability >= RouteRetryStable {
		r.parkVA(slot, cands)
	}
}

// cand is a Candidate packed into four bytes, the form allocate works on
// and the RC memo stores: the port (materialise keeps a router's ports
// within int16), the VC mask cut to the maxVCs a channel can have (the
// allocator masks it with the port's vcLimit anyway) and the escape flag.
type cand struct {
	port   int16
	mask   uint8
	escape bool
}

// packCands appends the routing function's candidates to dst as cands,
// panicking on a port the router does not have.
func (r *Router) packCands(dst []cand, routed []Candidate) []cand {
	for i := range routed {
		c := &routed[i]
		if uint(c.Port) >= uint(len(r.Out)) {
			panic(fmt.Sprintf("network: routing returned port %d at node %d, which has %d output ports", c.Port, r.ID, len(r.Out)))
		}
		dst = append(dst, cand{port: int16(c.Port), mask: uint8(c.VCMask), escape: c.Escape})
	}
	return dst
}

// adaptiveMask folds a candidate set's non-escape ports below 64 into the
// bitmask the livelock channel-switch restriction checks.
func adaptiveMask(cands []cand) uint64 {
	m := uint64(0)
	for i := range cands {
		if c := &cands[i]; !c.escape && c.port < 64 {
			m |= 1 << uint(c.port)
		}
	}
	return m
}

// allocate runs RC+VA for the packet at the front of vc.
//
// Hot-path structure (all bit-identical to routing every attempt afresh,
// the cycle semantics of DESIGN.md):
//   - a failing slot parks on the output ports its candidates name until a
//     credit arrival or output-VC release there can change the outcome
//     (vaFail/parkVA/unparkPort), so retries are not even visited;
//   - RouteRetryStable algorithms route each packet once per hop into the
//     candidate memo on its VC, reused while it waits with an unchanged
//     Restricted flag;
//   - RouteDynamic algorithms re-invoke Route every cycle.
func (r *Router) allocate(ctx *tickContext, slot, inPort int, vc *VCState) {
	net := ctx.net
	if net.LivelockHopBound > 0 && !vc.headRestricted && int(vc.headHops) > net.LivelockHopBound {
		r.pkts.get(vc.headRef).Restricted = true
		vc.headRestricted = true
	}
	if vc.headDst == r.ID {
		// Ejection: always allocatable; rate-limited in SA.
		r.grantVC(slot, vc, r.EjectPort, 0)
		return
	}
	if wi, bit := slot>>6, uint64(1)<<(uint(slot)&63); r.vaParked[wi]&bit != 0 {
		// The slot is parked (so no watched output changed since its last
		// failure) but a mid-wait flit delivery re-marked it pending: the
		// retry would fail identically, and the bulk accounting in tickCtx
		// already charged it this cycle. Drop the spurious mark. The key
		// check guards the (contract-violating, e.g. a LivelockHopBound
		// change mid-run) case where the packet state moved under a parked
		// slot: unpark and rescan.
		if vc.candsValid && vc.candsRestricted == vc.headRestricted {
			r.allocPend[wi] &^= bit
			return
		}
		r.vaParked[wi] &^= bit
		r.vaParkedCount--
	}
	var cands []cand
	if net.stability >= RouteRetryStable && vc.candsValid && vc.candsRestricted == vc.headRestricted {
		cands = r.memo[vc.candOff : vc.candOff+uint32(vc.candLen)]
	} else {
		pkt := r.pkts.get(vc.headRef)
		routed := net.Routing.Route(net, r, inPort, pkt, ctx.scratch.routed[:0])
		ctx.scratch.routed = routed[:0] // keep capacity
		// A RouteRetryStable function may set Restricted (part of its
		// reuse key); re-sync the denormalized copy.
		vc.headRestricted = pkt.Restricted
		if len(routed) == 0 {
			panic(fmt.Sprintf("network: routing %q returned no candidates at node %d for packet %d -> %d", net.Routing.Name(), r.ID, pkt.ID, pkt.Dst))
		}
		cands = r.packCands(ctx.scratch.cands[:0], routed)
		ctx.scratch.cands = cands[:0]
		if net.stability >= RouteRetryStable {
			cands = r.memoize(vc, cands)
		}
	}
	adaptivePorts := adaptiveMask(cands)

	sawAdaptive := false
	for i := range cands {
		c := &cands[i]
		port := int(c.port)
		out := &r.Out[port]
		if out.Link == nil {
			r.grantVC(slot, vc, port, 0)
			return
		}
		if !c.escape {
			sawAdaptive = true
		}
		// Pick a free allowed output VC under virtual cut-through
		// admission: the downstream buffer must have room for the whole
		// packet, which (with buffers ≥ packet length, as in all Table 2
		// configurations) makes the escape-channel constructions of the
		// routing algorithms deadlock-free without indirect-dependency
		// caveats. Class affinity keeps latency-sensitive packets and bulk
		// transfers off each other's VCs (per-VC delivery order would
		// otherwise couple control latency to bulk transfers at
		// heterogeneous interfaces): latency-sensitive packets take the
		// highest eligible VC, throughput the lowest, other classes the
		// lowest among those with the most credits. elig masks out held
		// VCs in one operation.
		need := min(int32(vc.headLen), out.Depth)
		if net.Cfg.WormholeAdmission {
			need = 1
		}
		elig := uint16(c.mask) & out.vcLimit &^ out.heldMask
		best, bestCred := -1, need-1
		switch vc.headClass {
		case ClassThroughput:
			for m := elig; m != 0; m &= m - 1 {
				ov := bits.TrailingZeros16(m)
				if out.Credits[ov] >= need {
					best = ov
					break
				}
			}
		case ClassLatencySensitive:
			for m := elig; m != 0; {
				ov := bits.Len16(m) - 1
				m &^= 1 << uint(ov)
				if out.Credits[ov] >= need {
					best = ov
					break
				}
			}
		default:
			for m := elig; m != 0; m &= m - 1 {
				ov := bits.TrailingZeros16(m)
				if cr := out.Credits[ov]; cr > bestCred {
					best, bestCred = ov, cr
				}
			}
		}
		if best < 0 {
			continue
		}
		if c.escape && sawAdaptive && (port >= 64 || adaptivePorts&(1<<uint(port)) == 0) {
			// Livelock channel-switch restriction (Sec. 6.2): the packet
			// fell back to the escape subnetwork because the adaptive
			// channels on its minimal paths were congested; from now on it
			// may only use adaptive channels consistent with the baseline
			// routing function. Taking the escape VC of a port that is
			// itself an adaptive candidate is not a fallback — the physical
			// direction stays adaptive-consistent — so it does not restrict
			// the packet. Written through to the canonical Packet.
			r.pkts.get(vc.headRef).Restricted = true
			vc.headRestricted = true
		}
		out.heldMask |= 1 << uint(best)
		r.grantVC(slot, vc, port, VCID(best))
		return
	}
	// Nothing allocatable this cycle; retry next cycle.
	r.vaFail(ctx, slot, cands)
}

// memoStride is the candidate-store region each slot of a memoizing router
// gets up front. Table 2's routing functions return two to four candidates
// nearly always; a slot that needs more gets a region of its own size at
// the end of the store.
const memoStride = 4

// memoize copies a RouteRetryStable candidate set into the slot's region of
// the router's candidate store and marks the memo valid. The store is
// allocated on the router's first memo with a memoStride region for every
// slot; a set that does not fit its slot's region moves the slot to a new
// one appended at the end. A set too long for the 8-bit length stays
// unmemoized: the slot then routes on every attempt, with the same result.
func (r *Router) memoize(vc *VCState, cands []cand) []cand {
	n := len(cands)
	if n > math.MaxUint8 {
		vc.candsValid = false
		return cands
	}
	if r.memo == nil {
		r.memo = make([]cand, len(r.vcs)*memoStride)
		for i := range r.vcs {
			r.vcs[i].candOff, r.vcs[i].candCap = uint32(i*memoStride), memoStride
		}
	}
	if n > int(vc.candCap) {
		vc.candOff, vc.candCap = uint32(len(r.memo)), uint8(n)
		r.memo = append(r.memo, cands...)
	} else {
		copy(r.memo[vc.candOff:], cands)
	}
	vc.candLen = uint8(n)
	vc.candsValid, vc.candsRestricted = true, vc.headRestricted
	return r.memo[vc.candOff : vc.candOff+uint32(n)]
}

// switchAlloc grants crossbar passage to active input VCs, respecting link
// accept rates, credits, per-input drain budgets and the regular-vs-
// heterogeneous crossbar constraints. The arbitration walks only the
// saReady bitmap, starting from the round-robin pointer and wrapping,
// which visits exactly the slots the flattened scan would have granted —
// in the same order.
func (r *Router) switchAlloc(ctx *tickContext) {
	if r.activeVCs == 0 {
		return
	}
	// The four per-cycle budget counters live in the shard's scratch, one
	// backing array reused by every router the shard ticks: a typical-radix
	// router's fit in two cache lines.
	nOut, nIn := len(r.Out), len(r.In)
	sa := ctx.scratch.sa
	if cap(sa) < 2*nOut+2*nIn {
		sa = make([]int, 2*nOut+2*nIn)
		ctx.scratch.sa = sa
	}
	sa = sa[:2*nOut+2*nIn]
	outSlots, outVCs := sa[:nOut:nOut], sa[nOut:2*nOut:2*nOut]
	inUsed, inVCs := sa[2*nOut:2*nOut+nIn:2*nOut+nIn], sa[2*nOut+nIn:]
	copy(outSlots, r.outBase)
	outAvail := r.outAvailBase
	for _, i := range r.outDyn {
		outSlots[i] = r.Out[i].Link.FreeSlots()
		if outSlots[i] > 0 {
			outAvail++
		}
	}
	clear(sa[nOut:])

	// Flattened round-robin over (input port, VC); rr stays < total, so the
	// wrap is a compare, not a division.
	total := len(r.vcs)
	start := r.rr
	r.rr = start + 1
	if r.rr == total {
		r.rr = 0
	}

	// Iterate the set bits of saReady (active slots not parked
	// on an empty credit counter) from the round-robin pointer, wrapping
	// once. Bits at or after start first (high part of the start word
	// masked), then the bits before start. The scan stops as soon as no
	// output or no input can take another grant (see outAvail) — regular
	// crossbars hit that after a handful of grants, long before the
	// ready-slot list is exhausted.
	r.outAvail, r.inAvail = outAvail, r.inBudgeted
	startWord, startBit := start>>6, uint(start)&63
	w := r.saReady[startWord] &^ (1<<startBit - 1)
	for wi := startWord; ; {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			r.saSlot(ctx, wi<<6+b, outSlots, outVCs, inUsed, inVCs)
			if r.outAvail == 0 || r.inAvail == 0 {
				return
			}
		}
		wi++
		if wi == len(r.saReady) {
			break
		}
		w = r.saReady[wi]
	}
	for wi := 0; wi <= startWord; wi++ {
		w = r.saReady[wi]
		if wi == startWord {
			w &= 1<<startBit - 1
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			r.saSlot(ctx, wi<<6+b, outSlots, outVCs, inUsed, inVCs)
			if r.outAvail == 0 || r.inAvail == 0 {
				return
			}
		}
	}
}

// saSlot arbitrates one flattened (input port, VC) slot within the
// current switch-allocation pass and moves its granted flits as one bulk
// run. The key structural fact: an output VC is Held by
// exactly one packet until its tail passes, so the flits of a packet are
// contiguous in its input VC buffer and the grantable run length is
// computable up front — min(budget, buffered flits, flits to the tail).
// The whole run then moves with one credit-batch, one counter update and
// one link hand-over instead of per-flit calls: a bulk append on plain
// links, in-order per-flit Accepts on adapter and retry links (their
// protocol work is per flit).
func (r *Router) saSlot(ctx *tickContext, slot int, outSlots, outVCs, inUsed, inVCs []int) {
	// The granted output port is denormalized into the compact slotOut
	// slab, so a slot whose output is already spent this cycle is
	// rejected before its VCState cache line is ever touched. The
	// reorder is behavior-neutral: every rejecting check is side-effect
	// free, and the empty-slot saReady clearing below is an idempotent
	// optimization the refill sites never depend on.
	op := int(r.slotOut[slot])
	if outSlots[op] <= 0 {
		return
	}
	out := &r.Out[op]
	if !out.Interface && outVCs[op] >= 1 {
		return
	}
	vc := &r.vcs[slot]
	if !vc.Active || vc.Buf.Empty() {
		// An active slot drained empty mid-packet cannot progress until
		// its next flit arrives; the refill sites (deliver, commitDirect,
		// injection) put it back.
		r.saReady[slot>>6] &^= 1 << (uint(slot) & 63)
		return
	}
	ip := int(vc.ip)
	in := &r.In[ip]
	drain := int(in.DrainBudget)
	if inUsed[ip] >= drain {
		return
	}
	if !in.Interface && inVCs[ip] >= 1 {
		return
	}
	budget := min(outSlots[op], drain-inUsed[ip])
	if out.Link != nil {
		cr := int(out.Credits[vc.OutVC])
		if cr == 0 {
			// Credit-starved: the held output VC cannot accept a flit until
			// its refilling credit completes, and only this slot drains that
			// counter — drop off the ready list until then (see saReady).
			r.saReady[slot>>6] &^= 1 << (uint(slot) & 63)
			out.waitSlot[vc.OutVC] = int16(slot)
			return
		}
		budget = min(budget, cr)
	}
	net := ctx.net
	headSeq := vc.headSeq
	remain := int(vc.headLen - headSeq) // flits up to and including the tail
	n := min(budget, vc.Buf.Len(), remain)
	tailSent := n == remain
	a, b := vc.Buf.PeekRun(n)
	if in.Link != nil {
		in.Link.ReturnCredits(VCID(slot-ip*r.slotVCs), n)
		if !in.Link.crQueued {
			in.Link.crQueued = true
			ctx.scratch.wokeCr = append(ctx.scratch.wokeCr, int32(in.Link.ID))
		}
	}
	if out.Link == nil {
		// Ejection: the packet is done once its tail leaves.
		ctx.scratch.grantsByKind[KindLocal] += uint64(n)
		if tailSent {
			pkt := r.pkts.get(vc.headRef)
			ctx.scratch.flitsOut += int64(pkt.Length)
			ctx.scratch.pktsOut++
			ctx.scratch.finished = append(ctx.scratch.finished, pkt)
		}
	} else {
		if headSeq == 0 {
			r.headHop(ctx, r.pkts.get(vc.headRef), out)
		}
		ctx.scratch.grantsByKind[out.Kind] += uint64(n)
		out.Credits[vc.OutVC] -= int32(n)
		if out.Credits[vc.OutVC] < 0 {
			panic("network: negative credits (switch allocation over-granted)")
		}
		if !out.Link.fwdQueued {
			out.Link.fwdQueued = true
			ctx.scratch.wokeFwd = append(ctx.scratch.wokeFwd, int32(out.Link.ID))
		}
		if out.slow {
			out.Link.acceptEach(net.Now, a, b, vc.OutVC)
		} else {
			out.Link.AcceptRun(a, b, vc.OutVC)
		}
	}
	vc.Buf.Drop(n)
	vc.headSeq = headSeq + uint16(n)
	r.buffered -= n
	if tailSent {
		if out.Link != nil {
			// Freeing an output VC can unblock allocations parked on this
			// port; return them to the pending set (effective next cycle,
			// the same cycle a rescan would first succeed).
			out.heldMask &^= 1 << uint(vc.OutVC)
			r.unparkPort(op)
		}
		vc.Active = false
		r.activeVCs--
		r.saActive[slot>>6] &^= 1 << (uint(slot) & 63)
		r.saReady[slot>>6] &^= 1 << (uint(slot) & 63)
		if !vc.Buf.Empty() {
			r.cacheHead(vc, vc.Buf.frontRef())
			r.markPend(slot)
		}
	}
	outSlots[op] -= n
	outVCs[op]++
	if outSlots[op] <= 0 || !out.Interface {
		r.outAvail--
	}
	inUsed[ip] += n
	inVCs[ip]++
	if inUsed[ip] >= drain || !in.Interface {
		r.inAvail--
	}
	ctx.scratch.moved += uint64(n)
}

// headHop records a head flit leaving through out: the per-kind hop
// counter (which also counts every flit's traversal of a plain link,
// Packet.settleEnergy) and the hop bound (maxPacketHops). A packet at the
// bound is a routing livelock; the merge reports it through the watchdog's
// error path.
func (r *Router) headHop(ctx *tickContext, pkt *Packet, out *OutPort) {
	switch out.Kind {
	case KindOnChip:
		pkt.HopsOnChip++
	case KindParallel:
		pkt.HopsParallel++
	case KindSerial:
		pkt.HopsSerial++
	case KindHeteroPHY:
		pkt.HopsHetero++
	}
	if pkt.Hops() >= maxPacketHops {
		ctx.scratch.livelocked = pkt
	}
}
