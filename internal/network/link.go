package network

import (
	"math/bits"
	"slices"
)

// Adapter is the per-flit transport of a link. A Link with a non-nil
// Adapter hands every flit to it instead of staging runs in the plain
// bandwidth×delay delay line. Two implement it: internal/core's
// heterogeneous-PHY adapter (Sec. 4.2), which owns the TX multi-width FIFO,
// both PHYs, the RX reorder buffer and the dispatch policy, and the retry
// pipe EnableRetry arms on a plain link.
type Adapter interface {
	// FreeSlots returns how many flits the adapter can accept this cycle
	// (TX queue space and fetch width; a retry pipe's wire bandwidth and
	// replay space).
	FreeSlots() int
	// Accept takes a flit in. The caller must have checked FreeSlots.
	Accept(now int64, f Flit)
	// Tick advances the adapter by one cycle, invoking deliver for every
	// flit it releases downstream, in order.
	Tick(now int64, deliver func(Flit))
	// InFlight returns the number of flits resident anywhere inside the
	// adapter and not yet delivered.
	InFlight() int
	// Busy reports whether the adapter still needs per-cycle ticks. Without
	// retry this is InFlight() > 0; with retry it also covers protocol
	// state (unacked replay entries, acks in flight) that must keep ticking
	// after the last flit is delivered.
	Busy() bool
}

// Undelivered is the optional Adapter capability CheckCredits reads: it
// calls fn with the VC of every flit the transport holds that has not been
// delivered downstream, each of which holds a downstream credit.
type Undelivered interface {
	UndeliveredVCs(fn func(VCID))
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
// A link has two forward paths. A link with an Adapter (hetero-PHY, or a
// plain link with retry armed) takes and delivers flits one at a time
// through it. A plain link never holds a flit itself: AcceptRun
// writes the flits straight into the destination input buffers at the
// producer cursor (FlitQueue staging) and the link keeps only a
// Delay-deep delay line of per-VC run lengths; the link phase of
// cycle t+Delay publishes what was accepted in cycle t
// (Network.commitDirect). The credit the source spent at acceptance
// reserves the ring slot for the whole flight, so this is exact at any
// delay: one copy per hop and O(runs) arrival work whether the channel is
// an on-chip wire or a 20-cycle serial interface.
type Link struct {
	ID int

	Src     NodeID
	Dst     NodeID
	SrcPort int // output-port index at the source router
	DstPort int // input-port index at the destination router

	Bandwidth int
	Delay     int

	// Adapter is the per-flit transport: non-nil for hetero-PHY links and
	// for links with retry armed (EnableRetry).
	Adapter Adapter

	// dstRouter is the router the link stages or delivers into, bound by
	// Finalize.
	dstRouter *Router

	// line holds the link's two delay lines, forward then credit, each
	// Delay stages of 1+Bandwidth packed words: the stage's run count, then
	// its runs (see packRun) in acceptance order. At most Bandwidth flits
	// enter a stage in either direction (the source's switch budget, the
	// destination port's drain budget), so a stage never holds more runs
	// than that and the line has no per-stage slice. stageHead is the
	// forward stage the next link phase publishes; acceptance appends to
	// the stage the last link phase vacated, which comes due Delay phases
	// from now (Delay 1 is the one-stage case). creditHead is the same for
	// credits. The forward line holds only run lengths: the flits sit
	// staged in the destination rings. Finalize gives line its storage.
	line       []uint16
	stageHead  uint16
	creditHead uint16

	accepted        int32 // flits accepted this cycle (plain pipeline rate limit)
	inFlight        int32
	creditsInFlight int32

	Kind LinkKind

	// fwdQueued/crQueued record membership in the engine's forward and
	// credit wake lists (see the package comment): set when a flit/credit
	// enters the respective pipeline, cleared by the wake-list scan once the
	// pipeline drains. They exist so a router tick enqueues a link at most
	// once per transition from empty to busy.
	fwdQueued bool
	crQueued  bool

	// delivered counts the flits deliver handed to the destination router
	// during the current Adapter.Tick (adapter links only);
	// Network.linkArrivals reads and clears it.
	delivered int32

	// SentTotal counts flits ever accepted, on every kind of link
	// (utilization diagnostics, the energy ledgers of
	// experiments.FuzzSimPoint).
	SentTotal uint64

	// srcOut/srcRouter are the source router's output port for this link
	// and the router itself, so credit completion applies a cycle's whole
	// batch straight to the counters (creditArrivals). Bound by Finalize.
	srcOut    *OutPort
	srcRouter *Router

	// deliver hands an adapter link's released flits to the destination
	// router; plain links publish through commitDirect and have none. Bound
	// once the link is both finalized and slow (bindOutput), so a tick
	// allocates nothing.
	deliver func(Flit)
}

// NewLink constructs a link of the given kind with bandwidth/delay/energy
// taken from cfg. Hetero-PHY links get their adapter attached separately;
// the delay lines get their storage in Finalize.
func NewLink(cfg *Config, id int, kind LinkKind, src NodeID, srcPort int, dst NodeID, dstPort int) *Link {
	return &Link{
		ID:        id,
		Kind:      kind,
		Src:       src,
		SrcPort:   srcPort,
		Dst:       dst,
		DstPort:   dstPort,
		Bandwidth: cfg.Bandwidth(kind),
		Delay:     cfg.Delay(kind),
	}
}

// A delay-line run is a packed (VC, count) word: n flits, or n credits, for
// the same downstream VC, entered consecutively — the VC in the top
// runVCBits bits and the count below. Both directions enter in
// switch-grant order, so a bulk run transfer is one word and the arrival
// side handles whole runs without re-scanning. A stage's runs never count
// more than Bandwidth in total, which Config.Validate keeps within
// MaxLinkBandwidth.
const (
	runVCBits = 3 // maxVCs VCs
	runNBits  = 16 - runVCBits

	// MaxLinkBandwidth is the widest channel, in flits per cycle, a packed
	// run can count.
	MaxLinkBandwidth = 1<<runNBits - 1
)

func packRun(vc VCID, n int) uint16 { return uint16(vc)<<runNBits | uint16(n) }

func runVC(w uint16) VCID { return VCID(w >> runNBits) }

func runLen(w uint16) int { return int(w & MaxLinkBandwidth) }

// lineWords is the length of a link's delay-line storage.
func (l *Link) lineWords() int { return 2 * l.Delay * (l.Bandwidth + 1) }

// stage returns the runs of delay-line stage i: forward stages are 0 to
// Delay-1, credit stages Delay to 2·Delay-1.
func (l *Link) stage(i int) []uint16 {
	base := i * (l.Bandwidth + 1)
	return l.line[base+1 : base+1+int(l.line[base])]
}

// pushRun records n flits or credits for vc in delay-line stage i, merging
// with the stage's last run when the VC matches.
func (l *Link) pushRun(i int, vc VCID, n int) {
	base := i * (l.Bandwidth + 1)
	k := int(l.line[base])
	if k > 0 && runVC(l.line[base+k]) == vc {
		l.line[base+k] += uint16(n)
		return
	}
	if k == l.Bandwidth {
		panic("network: delay-line stage over-filled (more than Bandwidth runs in one cycle)")
	}
	l.line[base+k+1] = packRun(vc, n)
	l.line[base] = uint16(k + 1)
}

// takeStage empties delay-line stage i and returns its runs, which stay
// readable until the stage is next written.
func (l *Link) takeStage(i int) []uint16 {
	runs := l.stage(i)
	l.line[i*(l.Bandwidth+1)] = 0
	return runs
}

// entryStage is the stage a line whose next due stage is head fills this
// cycle: the one that comes due Delay link phases from now.
func (l *Link) entryStage(head uint16) int {
	i := int(head) + l.Delay - 1
	if i >= l.Delay {
		i -= l.Delay
	}
	return i
}

// bindOutput derives what the link's protocol decides at its source
// router's output, the one place the slow-output rule lives: an adapter
// link takes a granted run one flit at a time (OutPort.slow), its
// per-cycle switch budget is its FreeSlots, listed in Router.outDyn,
// instead of a static Bandwidth in Router.outBase, and it delivers per flit
// through Link.deliver. Finalize calls it for every link, and SetAdapter
// and EnableRetry for theirs on a finalized network, so a protocol armed
// after Finalize throttles exactly like one armed before.
func (l *Link) bindOutput() {
	r, port := l.srcRouter, int32(l.SrcPort)
	slow := l.Adapter != nil
	l.srcOut.slow = slow
	if r.outBase[port] > 0 {
		r.outAvailBase--
	}
	r.outBase[port] = 0
	i, listed := slices.BinarySearch(r.outDyn, port)
	switch {
	case slow && !listed:
		r.outDyn = slices.Insert(r.outDyn, i, port)
	case !slow && listed:
		r.outDyn = slices.Delete(r.outDyn, i, i+1)
	}
	if !slow {
		if r.outBase[port] = l.Bandwidth; l.Bandwidth > 0 {
			r.outAvailBase++
		}
		return
	}
	if l.deliver == nil {
		dst, in := l.dstRouter, l.DstPort
		l.deliver = func(f Flit) {
			dst.deliver(in, f)
			l.delivered++
		}
	}
}

// FreeSlots returns how many more flits the link can accept this cycle.
func (l *Link) FreeSlots() int {
	if l.Adapter != nil {
		return l.Adapter.FreeSlots()
	}
	return l.Bandwidth - int(l.accepted)
}

// AcceptRun pushes a contiguous run of same-packet flits (as the up-to-two
// ring views a, b) into a plain link. The run is bulk-copied into reserved
// ring slots (a plain memmove: flits hold no pointer), then each flit's VC
// is rewritten to outVC in place: the one and only copy each flit makes
// between the two routers' buffers. Callers must have checked FreeSlots and
// must not use it on adapter links.
//
// Staging is the plain path that stayed (ROADMAP 2a): sending Delay-1 links
// through a flit pipe instead measured synth_knee wall_s +13 % (1.05 →
// 1.20 s, higher in 6/6 alternated pairs, sim_digest equal).
func (l *Link) AcceptRun(a, b []Flit, outVC VCID) {
	n := len(a) + len(b)
	r := l.dstRouter
	sa, sb := r.vcs[l.DstPort*r.slotVCs+int(outVC)].Buf.stageSpan(n)
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
	l.pushRun(l.entryStage(l.stageHead), outVC, n)
	l.inFlight += int32(n)
	l.accepted += int32(n)
	l.SentTotal += uint64(n)
}

// acceptEach hands a granted run (the ring views a, b) to an adapter link
// one flit at a time, in order, each flit relabelled to outVC: its protocol
// work is per flit. The hetero-PHY adapter charges the PHY it issues each
// flit to; a retry pipe charges retransmissions, at delivery.
func (l *Link) acceptEach(now int64, a, b []Flit, outVC VCID) {
	for _, span := range [2][]Flit{a, b} {
		for _, f := range span {
			f.VC = outVC
			l.SentTotal++
			l.Adapter.Accept(now, f)
		}
	}
}

// dueStage advances the forward delay line one cycle and returns the runs
// whose flits become visible downstream now, resetting the per-cycle
// bandwidth budget. The runs are valid until the link next accepts flits.
func (l *Link) dueStage() []uint16 {
	due := l.takeStage(int(l.stageHead))
	l.stageHead++
	if int(l.stageHead) == l.Delay {
		l.stageHead = 0
	}
	l.accepted = 0
	return due
}

// ReturnCredits sends n credits for the given downstream VC back to the
// source router; they arrive after the link delay.
func (l *Link) ReturnCredits(vc VCID, n int) {
	l.pushRun(l.Delay+l.entryStage(l.creditHead), vc, n)
	l.creditsInFlight += int32(n)
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
	due := l.takeStage(l.Delay + int(l.creditHead))
	l.creditHead++
	if int(l.creditHead) == l.Delay {
		l.creditHead = 0
	}
	if len(due) == 0 {
		return
	}
	out := l.srcOut
	var credited uint16
	total := 0
	for _, run := range due {
		v, n := runVC(run), runLen(run)
		out.Credits[v] += int32(n)
		credited |= 1 << uint(v)
		total += n
	}
	l.creditsInFlight -= int32(total)
	// A credit arrival can turn a failing VC allocation at the source
	// router into a succeeding one, so it returns allocations parked on
	// this output to the pending set, and puts a switch-stage slot starved
	// of credits on a credited VC back on the ready list.
	src := l.srcRouter
	src.unparkPort(l.SrcPort)
	for m := credited; m != 0; m &= m - 1 {
		v := bits.TrailingZeros16(m)
		if ws := out.waitSlot[v]; ws >= 0 {
			out.waitSlot[v] = -1
			src.saReady[ws>>6] |= 1 << (uint(ws) & 63)
		}
	}
}

// InFlight returns the number of flits inside the link (the adapter's
// count on adapter links).
func (l *Link) InFlight() int {
	if l.Adapter != nil {
		return l.Adapter.InFlight()
	}
	return int(l.inFlight)
}

// Busy reports whether the link holds any flits or credits in flight, or —
// with retry armed — any retry-protocol state (unacked replay entries,
// pending acks) that still needs per-cycle ticks.
func (l *Link) Busy() bool {
	return l.fwdBusy() || l.creditsInFlight > 0
}

// fwdBusy reports whether the forward direction still needs per-cycle
// ticks. On adapter links the adapter answers: an idle hetero-PHY
// adapter's Tick is observationally a no-op (empty pipelines advance in
// place, the reorder buffer releases nothing, and the per-cycle issue
// budgets were already left full by the tick that drained it), so skipping
// it cannot change results; a retry pipe stays busy while its replay
// buffer, wire or ack channel is non-empty — a pending retransmission or
// timeout must never be skipped by quiescence fast-forward.
func (l *Link) fwdBusy() bool {
	if l.Adapter != nil {
		return l.Adapter.Busy()
	}
	return l.inFlight > 0 || l.accepted > 0
}
