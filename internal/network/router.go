package network

import (
	"fmt"
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
// that declare a reuse contract. Stability is consulted once, on the first
// Step after construction (after any topology fault injection). Algorithms
// that do not implement it are treated as RouteDynamic.
type Stable interface {
	Routing
	Stability() RouteStability
}

// VCState is one virtual-channel input buffer and its allocation state.
// The queue is embedded by value and every router's VCStates live in one
// per-network slab (Network.packSlabs), so the switch stage reads occupancy
// and head state from the slot itself instead of chasing a *FlitQueue.
type VCState struct {
	Buf FlitQueue

	// Active is true while the packet at the front of Buf holds an output
	// VC; OutPort/OutVC identify it. The allocation is released when the
	// packet's tail flit traverses the switch.
	Active  bool
	OutPort int
	OutVC   VCID

	// headSeq/headLen cache the front flit's sequence number and its
	// packet's length while the VC holds an output allocation, so switch
	// allocation computes the transferable run without touching the ring
	// data or the Packet. Set by cacheHead when a head flit becomes the
	// front of an inactive VC, advanced by every drain; flits arrive in
	// order, so the cache always matches the front flit of an active VC.
	headSeq int32
	headLen int32

	// headRef/headDst/headPktID/headClass/headRestricted/headHops
	// denormalize the front head flit's packet ref and routing-relevant
	// fields into the slot (cacheHead, same sites as headSeq/headLen), so
	// RC+VA run without reading the ring or the packet table. Dst, ID,
	// Class and Length are immutable for a packet's lifetime, and the hop
	// count only changes when the head leaves; Restricted is mutable, and
	// every engine write while the head waits goes through allocate, which
	// updates both copies (the canonical Packet stays the source of truth
	// for routing functions and diagnostics).
	headRef        PacketRef
	headDst        NodeID
	headPktID      uint64
	headHops       int32
	headClass      Class
	headRestricted bool

	// RC-memoization state (RouteRetryStable routing; see allocate).
	// cands caches the candidate set computed for the packet candsPkt with
	// Restricted == candsRestricted, so VA retries reuse it instead of
	// re-invoking Route.
	cands           []Candidate
	candsPkt        uint64
	candsRestricted bool
}

// InPort is a router input: the upstream link (nil for the injection port)
// and one buffer per VC.
type InPort struct {
	Link *Link
	Kind LinkKind
	// DrainBudget bounds how many flits this input may push through the
	// crossbar per cycle (the upstream channel bandwidth).
	DrainBudget int
	// Interface marks die-to-die inputs: the heterogeneous router's
	// multi-port input buffer may drain several VCs of such a port in one
	// cycle (Sec. 4.1); regular inputs drain one VC per cycle.
	Interface bool
	VCs       []VCState
	// depth is the per-VC ring capacity in flits. Ports only declare it:
	// the rings have no storage until Finalize carves them out of the
	// network's ring chunks (packSlabs).
	depth int
}

// OutPort is a router output: the downstream link (nil for the ejection
// port), per-VC credit counters and output-VC allocation state.
type OutPort struct {
	Link *Link
	Kind LinkKind
	// Depth is the per-VC downstream buffer depth.
	Depth int
	// Credits tracks free buffer slots per downstream VC.
	Credits []int
	// Held marks output VCs currently allocated to an in-flight packet.
	// heldMask mirrors it as a bitmask so VC allocation can reject every
	// held VC of a candidate in one AND-NOT instead of a per-VC scan; the
	// two are updated together. vcLimit masks candidate VCMasks down to
	// the VCs that exist (a candidate may name VCs beyond len(Credits)).
	Held     []bool
	heldMask uint16
	vcLimit  uint16
	// Interface marks die-to-die outputs: the higher-radix crossbar lets
	// several input VCs feed such an output concurrently (Sec. 4.1);
	// regular outputs accept one input VC per cycle.
	Interface bool

	// parked is the set of the router's flattened input-VC slots whose VC
	// allocation is parked watching this output: their last attempt failed
	// and only a credit arrival or output-VC release *here* can change the
	// outcome (see Router.vaParked). waitSlot[v], when ≥ 0, is the slot
	// holding output VC v whose switch traversal is parked on an empty
	// credit counter; the credit completion that refills it puts the slot
	// back on the ready list.
	parked   []uint64
	waitSlot []int32

	// slow marks outputs whose link takes a granted run one flit at a time
	// (adapter or retry protocol work in Accept). Derived in Finalize and
	// kept current by EnableRetry/SetAdapter, so saSlot reads one
	// hot-line flag instead of chasing the Link struct tail.
	slow bool
}

// setHeld and clearHeld keep Held and heldMask in lockstep.
func (o *OutPort) setHeld(vc int) {
	o.Held[vc] = true
	o.heldMask |= 1 << uint(vc)
}

func (o *OutPort) clearHeld(vc VCID) {
	o.Held[vc] = false
	o.heldMask &^= 1 << uint(vc)
}

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
type Router struct {
	ID  NodeID
	In  []*InPort
	Out []*OutPort

	// pkts is the network's packet table, which resolves flit refs.
	pkts *PacketTable

	// InjectPort and EjectPort index the local ports in In and Out.
	InjectPort int
	EjectPort  int

	buffered  int // total flits across all input VC buffers (activity)
	activeVCs int // input VCs holding an output allocation
	rr        int // round-robin arbitration pointer

	// flat maps a flattened arbitration slot to its (input port, VC); the
	// pointers avoid re-deriving them per slot in the hot loops. Built by
	// rebuildWork once the port set is final.
	flat []flatSlot

	// slotVCs is the per-port VC count, for slot index arithmetic.
	slotVCs int

	// allocPend and saActive are the work bitmaps over flat slots
	// described above.
	allocPend []uint64
	saActive  []uint64

	// vaParked holds slots removed from allocPend because their VC
	// allocation provably fails until one of the output ports their
	// candidates name (recorded in OutPort.parked) sees a credit arrival
	// or an output-VC release — the only two events that can change a VA
	// outcome. unparkPort moves a port's watchers back to allocPend when
	// either occurs. vaParkedCount mirrors the bitmap's population so the
	// tick can charge each parked slot its per-cycle VA-failure statistic
	// with one addition (a dense scan would revisit the slot and fail
	// again — same count).
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

	// scratch buffers reused across cycles
	cands    []Candidate
	outSlots []int
	outVCs   []int // input VCs granted per output this cycle
	inUsed   []int // flits drained per input this cycle
	inVCs    []int // VCs granted per input this cycle

	// Switch-allocation early exit: outAvail/inAvail count output and
	// input ports that could still take part in a grant this cycle. Port
	// ineligibility is monotone within a cycle (budgets only shrink, grant
	// counts only grow), so each transition decrements its counter at most
	// once, and when either counter reaches zero every remaining slot visit
	// is provably a no-op — the scan stops without changing which grants
	// happen. inBudgeted is the static number of inputs with a non-zero
	// drain budget (rebuildWork).
	outAvail   int
	inAvail    int
	inBudgeted int

	// Static switch-budget prologue (rebuildWork): outBase[i] is out port
	// i's per-cycle budget at switch-allocation time — EjectionBandwidth
	// for the ejection port, link Bandwidth for plain links (their accepted
	// counter is always zero when their source router's tick runs; only
	// that tick raises it, and the phase-1 link advance clears it). Ports
	// on adapter/retry links have a truly dynamic budget and are listed in
	// outDyn for a per-cycle FreeSlots call. outAvailBase counts static
	// ports with a non-zero budget. ejBW is Config.EjectionBandwidth,
	// captured at construction so rebuildWork needs no Config.
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

// flatSlot is one flattened arbitration slot.
type flatSlot struct {
	in *InPort
	vc *VCState
	ip int32
	v  int32
}

// newRouter constructs a router with only local ports; topology builders add
// link ports via AddInPort/AddOutPort.
func newRouter(cfg *Config, id NodeID, pkts *PacketTable) *Router {
	r := &Router{ID: id, pkts: pkts, InjectPort: 0, EjectPort: 0, ejBW: cfg.EjectionBandwidth}
	// Injection input port.
	inj := &InPort{Kind: KindLocal, DrainBudget: cfg.InjectionBandwidth, depth: cfg.BufPerVC(KindLocal)}
	inj.VCs = make([]VCState, cfg.VCs)
	r.In = append(r.In, inj)
	// Ejection output port: no link, no credits needed beyond rate limit.
	ej := &OutPort{Kind: KindLocal, Interface: true}
	r.Out = append(r.Out, ej)
	return r
}

// AddInPort attaches the sink side of a link and returns the new input-port
// index.
func (r *Router) AddInPort(cfg *Config, l *Link) int {
	p := &InPort{
		Link:        l,
		Kind:        l.Kind,
		DrainBudget: l.Bandwidth,
		Interface:   l.Kind != KindOnChip,
		depth:       cfg.BufPerVC(l.Kind),
	}
	p.VCs = make([]VCState, cfg.VCs)
	r.In = append(r.In, p)
	return len(r.In) - 1
}

// AddOutPort attaches the source side of a link and returns the new
// output-port index.
func (r *Router) AddOutPort(cfg *Config, l *Link) int {
	p := &OutPort{
		Link:      l,
		Kind:      l.Kind,
		Interface: l.Kind != KindOnChip,
	}
	depth := cfg.BufPerVC(l.Kind)
	p.Depth = depth
	p.Credits = make([]int, cfg.VCs)
	p.Held = make([]bool, cfg.VCs)
	p.vcLimit = 1<<uint(cfg.VCs) - 1
	for i := range p.Credits {
		p.Credits[i] = depth
	}
	r.Out = append(r.Out, p)
	return len(r.Out) - 1
}

// rebuildWork (re)derives the flattened slot table, the work bitmaps and
// the held masks from current port state. Finalize calls it (rebuildWake);
// it is O(router), never per-cycle.
func (r *Router) rebuildWork() {
	r.slotVCs = len(r.In[0].VCs)
	r.flat = r.flat[:0]
	for ip, in := range r.In {
		for v := range in.VCs {
			r.flat = append(r.flat, flatSlot{in: in, vc: &in.VCs[v], ip: int32(ip), v: int32(v)})
		}
	}
	words := (len(r.flat) + 63) >> 6
	if len(r.allocPend) != words {
		// One backing array: the four work bitmaps of a typical-radix
		// router (one word each) share a cache line, so a slot's full
		// VA/SA decision state loads together.
		bm := make([]uint64, 4*words)
		r.allocPend = bm[:words:words]
		r.saActive = bm[words : 2*words : 2*words]
		r.vaParked = bm[2*words : 3*words : 3*words]
		r.saReady = bm[3*words : 4*words : 4*words]
	}
	for i := range r.allocPend {
		r.allocPend[i] = 0
		r.saActive[i] = 0
		r.vaParked[i] = 0
	}
	r.vaParkedCount = 0
	if cap(r.slotOut) < len(r.flat) {
		r.slotOut = make([]int16, len(r.flat))
	}
	r.slotOut = r.slotOut[:len(r.flat)]
	for slot := range r.flat {
		vc := r.flat[slot].vc
		r.slotOut[slot] = 0
		switch {
		case vc.Active:
			r.slotOut[slot] = int16(vc.OutPort)
			r.saActive[slot>>6] |= 1 << (uint(slot) & 63)
		case !vc.Buf.Empty():
			r.cacheHead(vc, vc.Buf.frontRef())
			r.allocPend[slot>>6] |= 1 << (uint(slot) & 63)
		}
	}
	// Forgetting parked state is always safe: an unparked slot is revisited,
	// fails (or succeeds) exactly as the dense scan would, and re-parks.
	copy(r.saReady, r.saActive)
	for _, out := range r.Out {
		out.heldMask = 0
		for v, h := range out.Held {
			if h {
				out.heldMask |= 1 << uint(v)
			}
		}
		if len(out.parked) != words {
			out.parked = make([]uint64, words)
		}
		for i := range out.parked {
			out.parked[i] = 0
		}
		if len(out.waitSlot) != len(out.Credits) {
			out.waitSlot = make([]int32, len(out.Credits))
		}
		for i := range out.waitSlot {
			out.waitSlot[i] = -1
		}
	}
	r.inBudgeted = 0
	for _, in := range r.In {
		if in.DrainBudget > 0 {
			r.inBudgeted++
		}
	}
	if cap(r.outBase) < len(r.Out) {
		r.outBase = make([]int, len(r.Out))
	}
	r.outBase = r.outBase[:len(r.Out)]
	r.outDyn = r.outDyn[:0]
	r.outAvailBase = 0
	for i, out := range r.Out {
		switch {
		case out.Link == nil:
			r.outBase[i] = r.ejBW
		case out.Link.Adapter != nil || out.Link.retry != nil:
			r.outBase[i] = 0
			r.outDyn = append(r.outDyn, int32(i))
			continue
		default:
			r.outBase[i] = out.Link.Bandwidth
		}
		if r.outBase[i] > 0 {
			r.outAvailBase++
		}
	}
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
// with a successor queued (saSlot) and rebuildWork. It is the one
// packet-table lookup of a packet's stay at a router. The non-head panic
// fires here, where the flit is already in hand.
func (r *Router) cacheHead(vc *VCState, f *Flit) {
	pkt := r.pkts.get(f.P)
	if f.Seq != 0 {
		panic(fmt.Sprintf("network: non-head flit (pkt %d seq %d) at front of idle VC", pkt.ID, f.Seq))
	}
	vc.cacheHeadPkt(pkt)
}

// cacheHeadPkt is cacheHead for sites that construct the head flit
// themselves (injection: sequence 0 by construction).
func (vc *VCState) cacheHeadPkt(pkt *Packet) {
	vc.headSeq = 0
	vc.headLen = int32(pkt.Length)
	vc.headRef = pkt.ref
	vc.headDst = pkt.Dst
	vc.headPktID = pkt.ID
	vc.headHops = int32(pkt.Hops())
	vc.headClass = pkt.Class
	vc.headRestricted = pkt.Restricted
}

// parkVA moves a slot whose VC allocation just failed from allocPend to
// vaParked, watching every output port in cands (the failure can only be
// undone by a credit arrival or VC release on one of them). Idempotent: a
// slot re-marked by a mid-wait flit delivery re-parks without recounting.
func (r *Router) parkVA(slot int, cands []Candidate) {
	wi, bit := slot>>6, uint64(1)<<(uint(slot)&63)
	r.allocPend[wi] &^= bit
	if r.vaParked[wi]&bit == 0 {
		r.vaParked[wi] |= bit
		r.vaParkedCount++
	}
	for i := range cands {
		r.Out[cands[i].Port].parked[wi] |= bit
	}
}

// unparkPort returns every slot parked on out to allocPend, called on the
// two events that can flip a VA failure there: a credit arrival and an
// output-VC release. Slots watching several ports are unparked by the
// first event and may leave stale bits in the other ports' masks; the
// vaParked intersection filters those (and bits of since-granted slots)
// out, and the mask reset drops them for good.
func (r *Router) unparkPort(out *OutPort) {
	for i, w := range out.parked {
		if w == 0 {
			continue
		}
		out.parked[i] = 0
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
	vc := &r.In[inPort].VCs[f.VC]
	wasEmpty := vc.Buf.Empty()
	if !vc.Buf.Push(f) {
		panic(fmt.Sprintf("network: input buffer overflow at node %d port %d vc %d (credit protocol violated)", r.ID, inPort, f.VC))
	}
	r.buffered++
	slot := inPort*r.slotVCs + int(f.VC)
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
			s := &r.flat[slot]
			// The non-head panic of the dense scan moved to cacheHead: the
			// slot state read here was denormalized from a checked head.
			r.allocate(ctx, slot, int(s.ip), s.vc)
		}
	}
}

// grantVC commits a successful VC allocation for the slot. The head cache
// (headSeq 0, headLen) was populated by cacheHead when the head reached
// the front, so the switch stage starts from it unchanged.
func (r *Router) grantVC(slot int, vc *VCState, port int, outVC VCID) {
	vc.Active, vc.OutPort, vc.OutVC = true, port, outVC
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
func (r *Router) vaFail(ctx *tickContext, slot int, vc *VCState, pktID uint64, restricted bool, cands []Candidate) {
	vc.candsPkt, vc.candsRestricted = pktID, restricted
	ctx.scratch.vaFailures++
	if ctx.net.stability >= RouteRetryStable {
		r.parkVA(slot, cands)
	}
}

// prepare runs on the first Step, once the topology (including injected
// faults) and the algorithm are in place: it reads the routing algorithm's
// declared stability and resolves Cfg.Workers, which an earlier SetWorkers
// has already set (0 = autoShards by size alone).
func (net *Network) prepare() {
	net.prepared = true
	if s, ok := net.Routing.(Stable); ok {
		net.stability = s.Stability()
	}
	n := net.Cfg.Workers
	if n == 0 {
		n = net.autoShards(0)
	}
	if n != len(net.shards.sh) {
		net.setShards(n)
	}
}

// adaptiveMask folds a candidate set's non-escape ports below 64 into the
// bitmask the livelock channel-switch restriction checks.
func adaptiveMask(cands []Candidate) uint64 {
	m := uint64(0)
	for i := range cands {
		if c := &cands[i]; !c.Escape && c.Port < 64 {
			m |= 1 << uint(c.Port)
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
		if vc.candsPkt == vc.headPktID && vc.candsRestricted == vc.headRestricted {
			r.allocPend[wi] &^= bit
			return
		}
		r.vaParked[wi] &^= bit
		r.vaParkedCount--
	}
	cands := vc.cands
	if net.stability < RouteRetryStable || vc.candsPkt != vc.headPktID || vc.candsRestricted != vc.headRestricted {
		pkt := r.pkts.get(vc.headRef)
		cands = net.Routing.Route(net, r, inPort, pkt, r.cands[:0])
		r.cands = cands[:0] // keep capacity
		// A RouteRetryStable function may set Restricted (part of its
		// reuse key); re-sync the denormalized copy.
		vc.headRestricted = pkt.Restricted
		if net.stability >= RouteRetryStable {
			// Copied, not routed in place: one exact-size allocation the
			// first time a VC's memo grows, not append's doubling steps
			// (synth_knee 4.1k → 3.5k allocs per kcycle).
			vc.cands = append(vc.cands[:0], cands...)
			vc.candsPkt, vc.candsRestricted = pkt.ID, pkt.Restricted
			cands = vc.cands
		}
	}
	adaptivePorts := adaptiveMask(cands)
	if len(cands) == 0 {
		panic(fmt.Sprintf("network: routing %q returned no candidates at node %d for packet %d -> %d", net.Routing.Name(), r.ID, vc.headPktID, vc.headDst))
	}

	sawAdaptive := false
	for i := range cands {
		c := &cands[i]
		out := r.Out[c.Port]
		if out.Link == nil {
			r.grantVC(slot, vc, c.Port, 0)
			return
		}
		if !c.Escape {
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
		need := min(int(vc.headLen), out.Depth)
		if net.Cfg.WormholeAdmission {
			need = 1
		}
		elig := c.VCMask & out.vcLimit &^ out.heldMask
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
		if c.Escape && sawAdaptive && (c.Port >= 64 || adaptivePorts&(1<<uint(c.Port)) == 0) {
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
		out.setHeld(best)
		r.grantVC(slot, vc, c.Port, VCID(best))
		return
	}
	// Nothing allocatable this cycle; retry next cycle.
	r.vaFail(ctx, slot, vc, vc.headPktID, vc.headRestricted, cands)
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
	nOut, nIn := len(r.Out), len(r.In)
	if cap(r.outSlots) < nOut || cap(r.inUsed) < nIn {
		// One backing array: the four per-cycle budget counters of a
		// typical-radix router fit in two cache lines instead of four
		// scattered allocations.
		sa := make([]int, 2*nOut+2*nIn)
		r.outSlots = sa[:nOut:nOut]
		r.outVCs = sa[nOut : 2*nOut : 2*nOut]
		r.inUsed = sa[2*nOut : 2*nOut+nIn : 2*nOut+nIn]
		r.inVCs = sa[2*nOut+nIn:]
	}
	outSlots, outVCs := r.outSlots[:nOut], r.outVCs[:nOut]
	inUsed, inVCs := r.inUsed[:nIn], r.inVCs[:nIn]
	copy(outSlots, r.outBase)
	outAvail := r.outAvailBase
	for _, i := range r.outDyn {
		outSlots[i] = r.Out[i].Link.FreeSlots()
		if outSlots[i] > 0 {
			outAvail++
		}
	}
	for i := range outVCs {
		outVCs[i] = 0
	}
	for i := range inUsed {
		inUsed[i] = 0
		inVCs[i] = 0
	}

	// Flattened round-robin over (input port, VC). rr stays < total except
	// right after a topology rebuild shrank flat, so the wrap is a compare,
	// not a division.
	total := len(r.flat)
	start := r.rr
	if start >= total {
		start %= total
	}
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
	out := r.Out[op]
	if !out.Interface && outVCs[op] >= 1 {
		return
	}
	s := &r.flat[slot]
	vc := s.vc
	if !vc.Active || vc.Buf.Empty() {
		// An active slot drained empty mid-packet cannot progress until
		// its next flit arrives; the refill sites (deliver, commitDirect,
		// injection) put it back. Clearing here also self-heals the
		// saActive seed rebuildWork copies into saReady.
		r.saReady[slot>>6] &^= 1 << (uint(slot) & 63)
		return
	}
	in := s.in
	ip := int(s.ip)
	if inUsed[ip] >= in.DrainBudget {
		return
	}
	if !in.Interface && inVCs[ip] >= 1 {
		return
	}
	budget := min(outSlots[op], in.DrainBudget-inUsed[ip])
	if out.Link != nil {
		cr := out.Credits[vc.OutVC]
		if cr == 0 {
			// Credit-starved: the held output VC cannot accept a flit until
			// its refilling credit completes, and only this slot drains that
			// counter — drop off the ready list until then (see saReady).
			r.saReady[slot>>6] &^= 1 << (uint(slot) & 63)
			out.waitSlot[vc.OutVC] = int32(slot)
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
		in.Link.ReturnCredits(VCID(s.v), n)
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
		out.Credits[vc.OutVC] -= n
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
	vc.headSeq = headSeq + int32(n)
	r.buffered -= n
	if tailSent {
		if out.Link != nil {
			// Freeing an output VC can unblock allocations parked on this
			// port; return them to the pending set (effective next cycle,
			// the same cycle a rescan would first succeed).
			out.clearHeld(vc.OutVC)
			r.unparkPort(out)
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
	if inUsed[ip] >= in.DrainBudget || !in.Interface {
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
