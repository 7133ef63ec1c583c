package network

import "math/bits"

// Adapter is the behavioral interface of a heterogeneous-PHY die-to-die
// adapter (Sec. 4.2). A Link with a non-nil Adapter delegates flit transport
// to it instead of the plain bandwidth×delay pipeline; the adapter owns the
// TX multi-width FIFO, the per-PHY pipelines, the RX reorder buffer and the
// dispatch policy. Implemented by internal/core.
type Adapter interface {
	// FreeSlots returns how many flits the adapter can accept this cycle,
	// bounded by the TX queue space and the adapter fetch width.
	FreeSlots() int
	// Accept enqueues a flit into the TX queue. The caller must have
	// checked FreeSlots.
	Accept(now int64, f Flit)
	// Tick advances the adapter by one cycle: dispatches queued flits to
	// the PHYs per the scheduling policy, advances the PHY pipelines, and
	// invokes deliver for every flit released in order by the RX side.
	Tick(now int64, deliver func(Flit))
	// InFlight returns the number of flits resident anywhere inside the
	// adapter (TX queue, PHY pipelines, RX reorder buffer).
	InFlight() int
	// Busy reports whether the adapter still needs per-cycle ticks. For an
	// adapter without retry this is InFlight() > 0; with per-PHY retry
	// enabled it also covers protocol state (unacked replay entries, acks
	// in flight) that must keep ticking after the last flit is delivered.
	Busy() bool
}

// PacketUser is the optional Adapter capability of charging traversals to
// packets: SetAdapter binds it to the network's packet table, which the
// adapter passes on to the retry pipes it creates.
type PacketUser interface {
	BindPackets(t *PacketTable)
}

// Link is a unidirectional physical channel between two routers, modeled as
// a pipeline with Bandwidth flits per stage and Delay stages (Sec. 7.1
// "Interface Model": virtual pipeline registers in the on-chip clock
// domain). It also carries the reverse credit pipeline with the same delay.
//
// A plain link (no adapter, no retry) never holds a flit itself. AcceptRun
// writes the flits straight into the destination input buffers at the
// producer cursor (FlitQueue staging) and the link keeps only a
// Delay-deep delay line of per-VC run lengths; the link phase of
// cycle t+Delay publishes what was accepted in cycle t
// (Network.commitDirect). The credit the source spent at acceptance
// reserves the ring slot for the whole flight, so this is exact at any
// delay: one copy per hop and O(runs) arrival work whether the channel is
// an on-chip wire or a 20-cycle serial interface.
type Link struct {
	ID   int
	Kind LinkKind

	Src     NodeID
	SrcPort int // output-port index at the source router
	Dst     NodeID
	DstPort int // input-port index at the destination router

	Bandwidth int
	Delay     int

	// Adapter is non-nil for hetero-PHY links.
	Adapter Adapter

	// stages is the forward delay line: stages[stageHead] comes due at the
	// next link phase, and acceptance appends to the stage the last link
	// phase vacated, which comes due Delay phases from now (Delay 1 is the
	// one-stage case). Entries are per-VC run lengths in acceptance order;
	// the flits themselves sit staged in dstIn's rings.
	stages    [][]creditRun
	stageHead int
	inFlight  int

	creditPipe      [][]creditRun
	creditHead      int
	creditsInFlight int

	accepted int // flits accepted this cycle (plain pipeline rate limit)

	// fwdQueued/crQueued record membership in the engine's forward and
	// credit wake lists (see the package comment): set when a flit/credit
	// enters the respective pipeline, cleared by the wake-list scan once the
	// pipeline drains. They exist so a router tick enqueues a link at most
	// once per transition from empty to busy.
	fwdQueued bool
	crQueued  bool

	// credPend/credMask hold the Delay-1 credit return batch in place (the
	// credit pipe degenerates to a single stage there): per-VC counts plus
	// the credited-VC mask, filled by ReturnCredits during the source tick
	// and applied+cleared by creditArrivals next phase 1 — same timing as
	// the one-stage pipe, without the heap slice. Deeper pipes keep
	// creditPipe. Sized for the config ceiling of 8 VCs.
	credPend [8]int32
	credMask uint16

	// SentTotal counts flits ever accepted, on every kind of link
	// (utilization diagnostics, the energy ledgers of
	// experiments.FuzzSimPoint).
	SentTotal uint64

	// retry, when non-nil, replaces the plain forward pipeline with the
	// link-layer retry protocol (see RetryPipe). nil keeps every hot path
	// byte-identical to the retry-free engine. Kept at the tail so the
	// plain pipeline's hot fields retain their cache layout.
	retry *RetryPipe

	// dstIn is the destination input port plain links stage into;
	// srcOut/srcRouter are the source router's output port for this link
	// and the router itself, so credit completion applies a cycle's whole
	// batch straight to the counters (creditArrivals). All three are bound
	// by Finalize (packSlabs moves the ports).
	dstIn     *InPort
	srcOut    *OutPort
	srcRouter *Router

	// delivered counts the flits this link's delivery closure handed to
	// the destination router during the current Arrivals call (adapter and
	// retry links only); Network.linkArrivals reads and clears it.
	delivered int
}

// NewLink constructs a link of the given kind with bandwidth/delay/energy
// taken from cfg. Hetero-PHY links get their adapter attached separately.
func NewLink(cfg *Config, id int, kind LinkKind, src NodeID, srcPort int, dst NodeID, dstPort int) *Link {
	l := &Link{
		ID:        id,
		Kind:      kind,
		Src:       src,
		SrcPort:   srcPort,
		Dst:       dst,
		DstPort:   dstPort,
		Bandwidth: cfg.Bandwidth(kind),
		Delay:     cfg.Delay(kind),
	}
	l.stages = make([][]creditRun, l.Delay)
	l.creditPipe = make([][]creditRun, l.Delay)
	return l
}

// creditRun is a run-length-encoded pipeline entry, used in both
// directions: n credits for the same downstream VC, or n staged flits on
// it, entered consecutively. Both enter in switch-grant order, so a bulk
// run transfer is one entry and the arrival side handles whole runs
// without re-scanning.
type creditRun struct {
	vc VCID
	n  int32
}

// FreeSlots returns how many more flits the link can accept this cycle.
// The adapter/retry indirection is outlined so the plain-pipeline path
// stays inlinable in the router hot loop.
func (l *Link) FreeSlots() int {
	if l.Adapter != nil || l.retry != nil {
		return l.freeSlotsSlow()
	}
	return l.Bandwidth - l.accepted
}

func (l *Link) freeSlotsSlow() int {
	if l.Adapter != nil {
		return l.Adapter.FreeSlots()
	}
	return l.retry.FreeSlots()
}

// AcceptRun pushes a contiguous run of same-packet flits (as the up-to-two
// ring views a, b) into a plain link. The run is bulk-copied into reserved
// ring slots (a plain memmove: flits hold no pointer), then each flit's VC
// is rewritten to outVC in place: the one and only copy each flit makes
// between the two routers' buffers. Callers must have checked FreeSlots and
// must not use it on adapter or retry links.
//
// Staging is the plain path that stayed (ROADMAP 2a): sending Delay-1 links
// through a flit pipe instead measured synth_knee wall_s +13 % (1.05 →
// 1.20 s, higher in 6/6 alternated pairs, sim_digest equal).
func (l *Link) AcceptRun(a, b []Flit, outVC VCID) {
	n := len(a) + len(b)
	sa, sb := l.dstIn.VCs[outVC].Buf.stageSpan(n)
	m := copy(sa, a)
	if m < len(a) {
		copy(sb, a[m:])
		copy(sb[len(a)-m:], b)
	} else if m2 := copy(sa[m:], b); m2 < len(b) {
		copy(sb, b[m2:])
	}
	for _, span := range [2][]Flit{sa, sb} {
		for i := range span {
			span[i].VC = outVC
		}
	}
	l.stageRun(outVC, n)
	l.inFlight += n
	l.accepted += n
	l.SentTotal += uint64(n)
}

// acceptEach hands a granted run (the ring views a, b) to an adapter or
// retry link one flit at a time, in order, each flit relabelled to outVC:
// their protocol work is per flit. The adapter charges the PHY it issues
// each flit to; the retry pipe charges retransmissions, at delivery.
func (l *Link) acceptEach(now int64, a, b []Flit, outVC VCID) {
	for _, span := range [2][]Flit{a, b} {
		for _, f := range span {
			f.VC = outVC
			l.SentTotal++
			if l.Adapter != nil {
				l.Adapter.Accept(now, f)
			} else {
				l.retry.Accept(now, f, 0)
			}
		}
	}
}

// stageRun records n flits staged for vc in the delay line's entry stage,
// merging with the previous run when the VC matches.
func (l *Link) stageRun(vc VCID, n int) {
	slot := l.stageHead + l.Delay - 1
	if slot >= l.Delay {
		slot -= l.Delay
	}
	stage := &l.stages[slot]
	if k := len(*stage) - 1; k >= 0 && (*stage)[k].vc == vc {
		(*stage)[k].n += int32(n)
		return
	}
	*stage = append(*stage, creditRun{vc, int32(n)})
}

// dueStage advances the forward delay line one cycle and returns the runs
// whose flits become visible downstream now, resetting the per-cycle
// bandwidth budget. The slice aliases the recycled stage and is valid until
// the link next accepts flits.
func (l *Link) dueStage() []creditRun {
	stage := &l.stages[l.stageHead]
	due := *stage
	*stage = (*stage)[:0]
	l.stageHead++
	if l.stageHead == l.Delay {
		l.stageHead = 0
	}
	l.accepted = 0
	return due
}

// ReturnCredits sends n credits for the given downstream VC back to the
// source router; they arrive after the link delay.
func (l *Link) ReturnCredits(vc VCID, n int) {
	if l.Delay == 1 {
		l.credPend[vc] += int32(n)
		l.credMask |= 1 << uint(vc)
		l.creditsInFlight += n
		return
	}
	slot := l.creditHead + l.Delay - 1
	if slot >= l.Delay {
		slot -= l.Delay
	}
	stage := l.creditPipe[slot]
	if k := len(stage) - 1; k >= 0 && stage[k].vc == vc {
		stage[k].n += int32(n)
	} else {
		stage = append(stage, creditRun{vc, int32(n)})
	}
	l.creditPipe[slot] = stage
	l.creditsInFlight += n
}

// Arrivals ticks an adapter or retry link one cycle, invoking deliver for
// every flit it releases downstream. Plain links have no per-flit arrival:
// Network.commitDirect publishes their due stage.
func (l *Link) Arrivals(now int64, deliver func(Flit)) {
	if l.Adapter != nil {
		l.Adapter.Tick(now, deliver)
		return
	}
	l.retry.Tick(now, func(f Flit, _ uint32) { deliver(f) })
}

// creditArrivals advances the credit pipeline one cycle and applies the
// completing batch directly to the source router's counters (srcOut bound
// by Finalize): all credit sums first, then one unpark pass and one
// ready-list wake per credited VC. Identical outcome to the per-run
// closure path — credit application touches neither the parked sets nor
// waitSlot, unparkPort is idempotent within a cycle (the first call moves
// every watcher), and a VC's wake fires on its first credited run — but
// with one pass per link per cycle instead of per run. Runs on the
// source router's shard, like the closures it replaces.
func (l *Link) creditArrivals() {
	var credited uint16
	out := l.srcOut
	if l.Delay == 1 {
		credited = l.credMask
		if credited == 0 {
			return
		}
		l.credMask = 0
		total := int32(0)
		for m := credited; m != 0; m &= m - 1 {
			v := bits.TrailingZeros16(m)
			out.Credits[v] += int(l.credPend[v])
			total += l.credPend[v]
			l.credPend[v] = 0
		}
		l.creditsInFlight -= int(total)
	} else {
		arr := l.creditPipe[l.creditHead]
		l.creditPipe[l.creditHead] = arr[:0]
		l.creditHead++
		if l.creditHead == l.Delay {
			l.creditHead = 0
		}
		if len(arr) == 0 {
			return
		}
		total := 0
		for _, cr := range arr {
			out.Credits[cr.vc] += int(cr.n)
			credited |= 1 << uint(cr.vc)
			total += int(cr.n)
		}
		l.creditsInFlight -= total
	}
	// A credit arrival can turn a failing VC allocation at the source
	// router into a succeeding one, so it returns allocations parked on
	// this output to the pending set, and puts a switch-stage slot starved
	// of credits on a credited VC back on the ready list.
	src := l.srcRouter
	src.unparkPort(out)
	for m := credited; m != 0; m &= m - 1 {
		v := bits.TrailingZeros16(m)
		if ws := out.waitSlot[v]; ws >= 0 {
			out.waitSlot[v] = -1
			src.saReady[ws>>6] |= 1 << (uint(ws) & 63)
		}
	}
}

// InFlight returns the number of flits inside the link (including adapter
// internals for hetero links).
func (l *Link) InFlight() int {
	if l.Adapter != nil || l.retry != nil {
		return l.inFlightSlow()
	}
	return l.inFlight
}

func (l *Link) inFlightSlow() int {
	if l.Adapter != nil {
		return l.Adapter.InFlight()
	}
	return l.retry.InFlight()
}

// Busy reports whether the link holds any flits or credits in flight, or —
// on retry-enabled paths — any retry-protocol state (unacked replay
// entries, pending acks) that still needs per-cycle ticks.
func (l *Link) Busy() bool {
	return l.fwdBusy() || l.creditsInFlight > 0
}

// fwdBusy reports whether the forward direction still needs per-cycle
// Arrivals ticks. For adapter links the adapter answers (flits resident,
// plus retry-protocol state when its PHYs run retry): an empty adapter's
// Tick is observationally a no-op (empty pipelines advance in place, the
// reorder buffer releases nothing, and the per-cycle issue budgets were
// already left full by the tick that drained it), so skipping it cannot
// change results. A retry link counts as busy while its replay buffer, wire
// or ack channel is non-empty — a pending retransmission or timeout must
// never be skipped by quiescence fast-forward.
func (l *Link) fwdBusy() bool {
	if l.Adapter != nil || l.retry != nil {
		return l.fwdBusySlow()
	}
	return l.inFlight > 0 || l.accepted > 0
}

func (l *Link) fwdBusySlow() bool {
	if l.Adapter != nil {
		return l.Adapter.Busy()
	}
	return l.retry.Busy()
}
