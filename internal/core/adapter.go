package core

import (
	"heteroif/internal/network"
)

// HeteroPHYAdapter is the behavioral model of the heterogeneous-PHY
// die-to-die adapter of Sec. 4.2 / Fig. 7(b). It implements
// network.Adapter, so a network.Link with this adapter behaves as one
// logical channel whose accept rate is B_p + B_s.
//
// TX side ("front-end", like a superscalar front-end): the router's switch
// deposits flits into a multi-width FIFO (Fetch); each cycle the adapter
// inspects packet headers (Decode), asks the scheduling policy for a PHY
// (Dispatch) and pushes flits into the selected PHY pipeline (Issue).
// Latency-sensitive flits may bypass a stalled queue head — but only onto
// the parallel PHY.
//
// RX side ("back-end"): flits emerging from the two PHY pipelines enter the
// reorder buffer, which releases them downstream in order (see ROB).
//
// The adapter adds one cycle of queueing latency on top of the PHY
// propagation delay, matching the extra cycle the synthesized reordering
// logic costs in Sec. 8.2.
type HeteroPHYAdapter struct {
	policy Policy
	st     State // what the policy reads, refilled by serialState

	txq      []txEntry
	txCap    int
	accepted int

	// phys holds the two PHYs, indexed by PHY.
	phys [2]phy

	// evict caches the policy's serial-eviction hook (set when retry is
	// enabled and the policy implements it).
	evict    serialEvictor
	nRescued uint64
	// held keeps rescued flits that the parallel retry pipe's replay window
	// could not take yet, in eviction order (feedRescue).
	held []stamped

	rob   *ROB
	txSN  uint16
	txVSN []uint16

	// pkts is the packet table PHY traversals are charged to (BindPackets).
	pkts *network.PacketTable

	// LookAhead bounds how deep the bypass scan looks past a stalled
	// queue head.
	LookAhead int

	maxQ int
}

type txEntry struct {
	f   network.Flit
	enq int64
}

// phy is one PHY behind the adapter: its bandwidth and propagation delay,
// the delay line issued flits cross it by — or, once EnableRetry arms it,
// the retry pipe that replaces the line — this cycle's remaining issue
// budget and how many flits were issued to it.
type phy struct {
	bw, delay int
	kind      network.LinkKind // energy class a traversal is charged to

	// slots is the delay line: delay stages of stamped flits, carved out
	// of one array at their static bound (a PHY issues at most bw flits a
	// cycle), so issues never reallocate.
	slots    [][]stamped
	head     int
	inFlight int

	retry *network.RetryPipe

	budget int
	issued uint64
}

func newPHY(bw, delay int, kind network.LinkKind) phy {
	p := phy{bw: bw, delay: delay, kind: kind, slots: make([][]stamped, delay), budget: bw}
	buf := make([]stamped, delay*bw)
	for i := range p.slots {
		p.slots[i] = buf[i*bw : i*bw : (i+1)*bw]
	}
	return p
}

// send puts a flit on the PHY. A retry pipe charges its packet per
// transmission (retransmissions burn energy again); the delay line once,
// here.
func (p *phy) send(now int64, e stamped, pkts *network.PacketTable) {
	if p.retry != nil {
		p.retry.Accept(now, e.f, e.tag())
		return
	}
	pkts.Charge(e.f.P, p.kind, 1)
	slot := (p.head + p.delay - 1) % p.delay
	p.slots[slot] = append(p.slots[slot], e)
	p.inFlight++
}

// tick advances the PHY one cycle, inserting its arrivals into rob.
func (p *phy) tick(now int64, rob *ROB) {
	if p.retry != nil {
		p.retry.Tick(now, rob.arrive)
		return
	}
	arr := p.slots[p.head]
	p.slots[p.head] = arr[:0]
	p.head = (p.head + 1) % p.delay
	for _, e := range arr {
		p.inFlight--
		rob.Insert(e.f, e.sn, e.vsn)
	}
}

// refill restores the per-cycle issue budget: the bandwidth, or what the
// retry pipe can take.
func (p *phy) refill() {
	p.budget = p.bw
	if p.retry != nil {
		p.budget = p.retry.FreeSlots()
	}
}

// flits returns the number of flits issued to the PHY and not yet arrived.
func (p *phy) flits() int {
	if p.retry != nil {
		return p.inFlight + p.retry.InFlight()
	}
	return p.inFlight
}

// busy reports retry-protocol state that needs ticks with no flit resident.
func (p *phy) busy() bool { return p.retry != nil && p.retry.Busy() }

func (p *phy) undeliveredVCs(fn func(network.VCID)) {
	for _, stage := range p.slots {
		for _, e := range stage {
			fn(e.f.VC)
		}
	}
	if p.retry != nil {
		p.retry.UndeliveredVCs(fn)
	}
}

// NewHeteroPHYAdapter builds an adapter from the simulation configuration
// and a scheduling policy (nil means Balanced).
func NewHeteroPHYAdapter(cfg *network.Config, policy Policy) *HeteroPHYAdapter {
	if policy == nil {
		policy = Balanced{}
	}
	a := &HeteroPHYAdapter{
		policy: policy,
		phys: [2]phy{
			PHYParallel: newPHY(cfg.ParallelBandwidth, cfg.ParallelDelay, network.KindParallel),
			PHYSerial:   newPHY(cfg.SerialBandwidth, cfg.SerialDelay, network.KindSerial),
		},
		txq:       make([]txEntry, 0, cfg.AdapterQueueDepth),
		txCap:     cfg.AdapterQueueDepth,
		rob:       NewROB(cfg.VCs),
		txVSN:     make([]uint16, cfg.VCs),
		LookAhead: 8,
	}
	// Eq. 1: the parallel PHY runs at most D_s − D_p cycles ahead of the
	// serial one (or the serial PHY D_p − D_s ahead, should it be the
	// faster); one more cycle of arrivals from both PHYs can join before
	// Release runs. Link retry can exceed it, and then pending grows.
	par, ser := &a.phys[PHYParallel], &a.phys[PHYSerial]
	ahead := par.bw*max(ser.delay-par.delay, 0) + ser.bw*max(par.delay-ser.delay, 0)
	a.rob.pending = make([]stamped, 0, ahead+par.bw+ser.bw)
	return a
}

// BindPackets implements network.PacketUser: the adapter charges PHY
// traversals to the packets of t. Network.SetAdapter calls it; bind before
// EnableRetry, which hands the table on to the retry pipes.
func (a *HeteroPHYAdapter) BindPackets(t *network.PacketTable) { a.pkts = t }

// Policy returns the adapter's scheduling policy.
func (a *HeteroPHYAdapter) Policy() Policy { return a.policy }

// FreeSlots implements network.Adapter: TX queue space bounded by the
// adapter fetch width (B_p + B_s flits per cycle).
func (a *HeteroPHYAdapter) FreeSlots() int {
	return min(a.txCap-len(a.txq), a.phys[PHYParallel].bw+a.phys[PHYSerial].bw-a.accepted)
}

// Accept implements network.Adapter (the Fetch stage). If this cycle's
// issue budget is not exhausted, the flit may be decoded and issued in the
// same cycle — the adapter only adds queueing latency under contention,
// matching the Sec. 8.2 observation that reordering costs a single cycle.
func (a *HeteroPHYAdapter) Accept(now int64, f network.Flit) {
	a.txq = append(a.txq, txEntry{f: f, enq: now})
	a.accepted++
	if len(a.txq) > a.maxQ {
		a.maxQ = len(a.txq)
	}
	if a.phys[PHYParallel].budget > 0 || a.phys[PHYSerial].budget > 0 {
		a.dispatch(now)
	}
}

// InFlight implements network.Adapter.
func (a *HeteroPHYAdapter) InFlight() int {
	return len(a.txq) + len(a.held) + a.phys[PHYParallel].flits() + a.phys[PHYSerial].flits() + a.rob.Occupancy()
}

// Busy implements network.Adapter: resident flits, plus — when a PHY runs
// retry — protocol state (unacked replay entries, acks in flight) that
// still needs ticks after the last flit was delivered.
func (a *HeteroPHYAdapter) Busy() bool {
	return a.InFlight() > 0 || a.phys[PHYParallel].busy() || a.phys[PHYSerial].busy()
}

// UndeliveredVCs implements network.Undelivered: every flit in the TX
// queue, held for the parallel retry pipe, on either PHY or in the reorder
// buffer.
func (a *HeteroPHYAdapter) UndeliveredVCs(fn func(network.VCID)) {
	for _, e := range a.txq {
		fn(e.f.VC)
	}
	for _, h := range a.held {
		fn(h.f.VC)
	}
	a.phys[PHYParallel].undeliveredVCs(fn)
	a.phys[PHYSerial].undeliveredVCs(fn)
	for _, e := range a.rob.pending {
		fn(e.f.VC)
	}
}

// EnableRetry arms the link-layer retry protocol on one PHY of the
// adapter, with the given fault hook (nil = reliable wire). window and
// timeout <= 0 pick defaults from the PHY's bandwidth and delay. If the
// scheduling policy implements the serial-eviction hook (FailoverPolicy),
// the adapter wires it up so stuck serial flits can be rescued onto the
// parallel PHY.
func (a *HeteroPHYAdapter) EnableRetry(phy PHY, hook network.TxFault, window, timeout int) {
	p := &a.phys[phy]
	p.retry = network.NewRetryPipe(p.bw, p.delay, window, timeout, hook, p.kind, a.pkts)
	if ev, ok := a.policy.(serialEvictor); ok {
		a.evict = ev
	}
}

// Tick implements network.Adapter: advance PHY pipelines into the ROB,
// release in-order flits downstream, then issue queued flits to the PHYs.
func (a *HeteroPHYAdapter) Tick(now int64, deliver func(network.Flit)) {
	par, ser := &a.phys[PHYParallel], &a.phys[PHYSerial]
	par.tick(now, a.rob)
	if par.retry != nil {
		a.feedRescue(now)
	}
	ser.tick(now, a.rob)
	if ser.retry != nil && a.evict != nil && a.evict.EvictSerial(a.serialState(now)) {
		a.rescueSerial(now)
	}
	a.rob.Release(deliver)
	par.refill()
	ser.refill()
	a.dispatch(now)
	a.accepted = 0
}

// serialState refills a.st as the policy's view of the adapter at now,
// with the serial PHY's link-layer health filled in when it runs retry.
func (a *HeteroPHYAdapter) serialState(now int64) *State {
	st := &a.st
	*st = State{Now: now}
	if rp := a.phys[PHYSerial].retry; rp != nil {
		st.SerialSent = rp.Stats.Transmits
		st.SerialRetries = rp.Stats.Retransmits
		st.SerialPending = rp.InFlight()
		st.SerialOldestAge = rp.OldestAge(now)
	}
	return st
}

// rescueSerial evicts every undelivered flit off the serial retry pipe and
// re-issues it through the parallel PHY. The flits keep their original
// VSN/SN stamps, so the ROB still releases them in issue order; clearing
// the serial pipe (FailoverDrain) guarantees no duplicate can follow. The
// burst intentionally ignores the per-cycle parallel budget — a rare
// rescue event models the adapter re-steering its buffered state. A
// parallel retry pipe takes the burst only as far as its replay window
// reaches; the adapter holds the rest and feeds it in as acks free the
// window (feedRescue), while new dispatches wait behind it.
func (a *HeteroPHYAdapter) rescueSerial(now int64) {
	par := &a.phys[PHYParallel]
	a.phys[PHYSerial].retry.FailoverDrain(func(f network.Flit, tag uint32) {
		a.nRescued++
		if par.retry != nil {
			a.held = append(a.held, unstamp(f, tag))
			return
		}
		par.send(now, unstamp(f, tag), a.pkts)
	})
	if par.retry != nil {
		a.feedRescue(now)
	}
}

// feedRescue moves held rescued flits into the parallel retry pipe, oldest
// first, while its replay window has room, outside the per-cycle budget
// like the rescue burst itself.
func (a *HeteroPHYAdapter) feedRescue(now int64) {
	rp := a.phys[PHYParallel].retry
	n := 0
	for ; n < len(a.held) && !rp.Full(); n++ {
		rp.Accept(now, a.held[n].f, a.held[n].tag())
	}
	a.held = a.held[:copy(a.held, a.held[n:])]
}

func (a *HeteroPHYAdapter) dispatch(now int64) {
	par, ser := &a.phys[PHYParallel], &a.phys[PHYSerial]
	// High-priority bypass first: latency-sensitive flits are issued ahead
	// of the queue through the parallel PHY ("high-priority packets can be
	// dispatched early through the bypass", Sec. 4.2), never overtaking a
	// same-VC flit.
	if par.budget > 0 {
		a.bypassScan(now)
	}
	for par.budget > 0 || ser.budget > 0 {
		if len(a.txq) == 0 {
			return
		}
		e := a.txq[0]
		var phy PHY
		var ok bool
		if e.f.Class == network.ClassLatencySensitive {
			// Bypass class: parallel PHY only (Sec. 4.2).
			phy, ok = PHYParallel, par.budget > 0
		} else {
			st := a.serialState(now)
			st.QueueLen, st.QueueCap = len(a.txq), a.txCap
			st.ParallelBudget, st.SerialBudget = par.budget, ser.budget
			st.Waited = now - e.enq
			phy, ok = a.policy.Dispatch(st, e.f)
			ok = ok && a.phys[phy].budget > 0
		}
		if !ok {
			return
		}
		a.popFront()
		a.issue(now, e.f, phy)
	}
}

// bypassScan issues latency-sensitive flits from anywhere in the look-ahead
// window onto the parallel PHY, preserving their relative order. A flit may
// only jump past flits of *other* virtual channels: per-VC issue order is
// the delivery contract (see ROB), so overtaking a same-VC flit is never
// allowed.
func (a *HeteroPHYAdapter) bypassScan(now int64) {
	limit := min(len(a.txq), 1+a.LookAhead)
	for i := 0; i < limit && a.phys[PHYParallel].budget > 0; {
		if a.txq[i].f.Class != network.ClassLatencySensitive {
			i++
			continue
		}
		vc := a.txq[i].f.VC
		blocked := false
		for j := 0; j < i; j++ {
			if a.txq[j].f.VC == vc {
				blocked = true
				break
			}
		}
		if blocked {
			i++
			continue
		}
		f := a.txq[i].f
		copy(a.txq[i:], a.txq[i+1:])
		a.txq[len(a.txq)-1] = txEntry{}
		a.txq = a.txq[:len(a.txq)-1]
		limit--
		a.issue(now, f, PHYParallel)
	}
}

func (a *HeteroPHYAdapter) popFront() {
	copy(a.txq, a.txq[1:])
	a.txq[len(a.txq)-1] = txEntry{}
	a.txq = a.txq[:len(a.txq)-1]
}

// issue stamps f and sends it on PHY phy, spending one of its budget.
func (a *HeteroPHYAdapter) issue(now int64, f network.Flit, phy PHY) {
	e := stamped{f: f, vsn: a.txVSN[f.VC]}
	a.txVSN[f.VC]++
	if f.Class == network.ClassInOrder {
		e.sn = a.txSN
		a.txSN++
	}
	p := &a.phys[phy]
	p.budget--
	p.issued++
	p.send(now, e, a.pkts)
}

// ParallelFlits returns how many flits were issued to the parallel PHY.
func (a *HeteroPHYAdapter) ParallelFlits() uint64 { return a.phys[PHYParallel].issued }

// SerialFlits returns how many flits were issued to the serial PHY.
func (a *HeteroPHYAdapter) SerialFlits() uint64 { return a.phys[PHYSerial].issued }

// MaxQueue returns the TX queue high-water mark.
func (a *HeteroPHYAdapter) MaxQueue() int { return a.maxQ }

// MaxROBOccupancy returns the RX reorder-buffer high-water mark, for
// comparison against the Eq. 1 estimate.
func (a *HeteroPHYAdapter) MaxROBOccupancy() int { return a.rob.MaxOccupancy() }

// ParallelRetry returns the parallel PHY's retry pipe, or nil.
func (a *HeteroPHYAdapter) ParallelRetry() *network.RetryPipe { return a.phys[PHYParallel].retry }

// SerialRetry returns the serial PHY's retry pipe, or nil.
func (a *HeteroPHYAdapter) SerialRetry() *network.RetryPipe { return a.phys[PHYSerial].retry }

// Rescued returns how many flits the failover eviction path pulled off the
// serial PHY and re-issued through the parallel PHY.
func (a *HeteroPHYAdapter) Rescued() uint64 { return a.nRescued }

var (
	_ network.Adapter     = (*HeteroPHYAdapter)(nil)
	_ network.PacketUser  = (*HeteroPHYAdapter)(nil)
	_ network.Undelivered = (*HeteroPHYAdapter)(nil)
)
