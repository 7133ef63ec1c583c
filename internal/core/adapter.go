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

	parallelBW    int
	serialBW      int
	delayParallel int
	delaySerial   int

	txq      []txEntry
	txCap    int
	accepted int
	pb, sb   int // remaining per-PHY issue budget this cycle

	ppipe phyPipe
	spipe phyPipe

	// pRetry/sRetry, when non-nil, replace the corresponding plain PHY
	// pipeline with the link-layer retry protocol (see
	// network.RetryPipe). nil keeps the retry-free paths untouched.
	pRetry *network.RetryPipe
	sRetry *network.RetryPipe
	// evict caches the policy's serial-eviction hook (set when retry is
	// enabled and the policy implements it).
	evict    serialEvictor
	nRescued uint64
	// held keeps rescued flits, with their tags, that the parallel retry
	// pipe's replay window could not take yet, in eviction order
	// (feedRescue).
	held []heldFlit

	rob   *ROB
	txSN  uint16
	txVSN []uint16

	// pkts is the packet table PHY traversals are charged to (BindPackets).
	pkts *network.PacketTable

	// LookAhead bounds how deep the bypass scan looks past a stalled
	// queue head.
	LookAhead int

	nParallel uint64
	nSerial   uint64
	maxQ      int
}

type heldFlit struct {
	f   network.Flit
	tag uint32
}

type txEntry struct {
	f   network.Flit
	enq int64
}

// phyPipe is one PHY's propagation pipeline: delay stages, bandwidth
// stamped flits per stage.
type phyPipe struct {
	delay    int
	slots    [][]stamped
	head     int
	inFlight int
}

// newPhyPipe carves the stages out of one array at their static bound (a
// PHY issues at most bw flits per cycle), so pushes never reallocate.
func newPhyPipe(delay, bw int) phyPipe {
	p := phyPipe{delay: delay, slots: make([][]stamped, delay)}
	buf := make([]stamped, delay*bw)
	for i := range p.slots {
		p.slots[i] = buf[i*bw : i*bw : (i+1)*bw]
	}
	return p
}

func (p *phyPipe) push(e stamped) {
	slot := (p.head + p.delay - 1) % p.delay
	p.slots[slot] = append(p.slots[slot], e)
	p.inFlight++
}

// advance moves the pipeline one stage, inserting the arrivals into rob.
func (p *phyPipe) advance(rob *ROB) {
	arr := p.slots[p.head]
	p.slots[p.head] = arr[:0]
	p.head = (p.head + 1) % p.delay
	for _, e := range arr {
		p.inFlight--
		rob.Insert(e.f, e.sn, e.vsn)
	}
}

// NewHeteroPHYAdapter builds an adapter from the simulation configuration
// and a scheduling policy (nil means Balanced).
func NewHeteroPHYAdapter(cfg *network.Config, policy Policy) *HeteroPHYAdapter {
	if policy == nil {
		policy = Balanced{}
	}
	a := &HeteroPHYAdapter{
		policy:        policy,
		parallelBW:    cfg.ParallelBandwidth,
		serialBW:      cfg.SerialBandwidth,
		delayParallel: cfg.ParallelDelay,
		delaySerial:   cfg.SerialDelay,
		txq:           make([]txEntry, 0, cfg.AdapterQueueDepth),
		txCap:         cfg.AdapterQueueDepth,
		rob:           NewROB(cfg.VCs),
		txVSN:         make([]uint16, cfg.VCs),
		LookAhead:     8,
	}
	// Eq. 1: the parallel PHY runs at most D_s − D_p cycles ahead of the
	// serial one (or the serial PHY D_p − D_s ahead, should it be the
	// faster); one more cycle of arrivals from both PHYs can join before
	// Release runs. Link retry can exceed it, and then pending grows.
	ahead := a.parallelBW*max(a.delaySerial-a.delayParallel, 0) + a.serialBW*max(a.delayParallel-a.delaySerial, 0)
	a.rob.pending = make([]stamped, 0, ahead+a.parallelBW+a.serialBW)
	a.ppipe = newPhyPipe(a.delayParallel, a.parallelBW)
	a.spipe = newPhyPipe(a.delaySerial, a.serialBW)
	a.pb, a.sb = a.parallelBW, a.serialBW
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
	return min(a.txCap-len(a.txq), a.parallelBW+a.serialBW-a.accepted)
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
	if a.pb > 0 || a.sb > 0 {
		a.dispatch(now)
	}
}

// InFlight implements network.Adapter.
func (a *HeteroPHYAdapter) InFlight() int {
	n := len(a.txq) + len(a.held) + a.ppipe.inFlight + a.spipe.inFlight + a.rob.Occupancy()
	if a.pRetry != nil {
		n += a.pRetry.InFlight()
	}
	if a.sRetry != nil {
		n += a.sRetry.InFlight()
	}
	return n
}

// Busy implements network.Adapter: resident flits, plus — when a PHY runs
// retry — protocol state (unacked replay entries, acks in flight) that
// still needs ticks after the last flit was delivered.
func (a *HeteroPHYAdapter) Busy() bool {
	if a.InFlight() > 0 {
		return true
	}
	return (a.pRetry != nil && a.pRetry.Busy()) || (a.sRetry != nil && a.sRetry.Busy())
}

// EnableRetry arms the link-layer retry protocol on one PHY of the
// adapter, with the given fault hook (nil = reliable wire). window and
// timeout <= 0 pick defaults from the PHY's bandwidth and delay. If the
// scheduling policy implements the serial-eviction hook (FailoverPolicy),
// the adapter wires it up so stuck serial flits can be rescued onto the
// parallel PHY.
func (a *HeteroPHYAdapter) EnableRetry(phy PHY, hook network.TxFault, window, timeout int) {
	switch phy {
	case PHYParallel:
		a.pRetry = network.NewRetryPipe(a.parallelBW, a.delayParallel, window, timeout,
			hook, network.KindParallel, a.pkts)
	case PHYSerial:
		a.sRetry = network.NewRetryPipe(a.serialBW, a.delaySerial, window, timeout,
			hook, network.KindSerial, a.pkts)
	}
	if ev, ok := a.policy.(serialEvictor); ok {
		a.evict = ev
	}
}

// Tick implements network.Adapter: advance PHY pipelines into the ROB,
// release in-order flits downstream, then issue queued flits to the PHYs.
func (a *HeteroPHYAdapter) Tick(now int64, deliver func(network.Flit)) {
	if a.pRetry != nil {
		a.pRetry.Tick(now, a.arrive)
		a.feedRescue(now)
	} else {
		a.ppipe.advance(a.rob)
	}
	if a.sRetry != nil {
		a.sRetry.Tick(now, a.arrive)
		if a.evict != nil && a.evict.EvictSerial(a.serialState(now)) {
			a.rescueSerial(now)
		}
	} else {
		a.spipe.advance(a.rob)
	}
	a.rob.Release(deliver)
	a.pb, a.sb = a.parallelBW, a.serialBW
	if a.pRetry != nil {
		a.pb = a.pRetry.FreeSlots()
	}
	if a.sRetry != nil {
		a.sb = a.sRetry.FreeSlots()
	}
	a.dispatch(now)
	a.accepted = 0
}

// arrive inserts a flit a retry pipe delivered into the ROB, its stamps
// unpacked from the entry tag.
func (a *HeteroPHYAdapter) arrive(f network.Flit, tag uint32) {
	e := unstamp(f, tag)
	a.rob.Insert(e.f, e.sn, e.vsn)
}

// serialState summarizes the serial PHY's link-layer health for the
// eviction hook.
func (a *HeteroPHYAdapter) serialState(now int64) State {
	return State{
		Now:             now,
		SerialSent:      a.sRetry.Stats.Transmits,
		SerialRetries:   a.sRetry.Stats.Retransmits,
		SerialPending:   a.sRetry.InFlight(),
		SerialOldestAge: a.sRetry.OldestAge(now),
	}
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
	a.sRetry.FailoverDrain(func(f network.Flit, tag uint32) {
		a.nRescued++
		if a.pRetry != nil {
			a.held = append(a.held, heldFlit{f, tag})
			return
		}
		a.pkts.Charge(f.P, network.KindParallel, 1)
		a.ppipe.push(unstamp(f, tag))
	})
	if a.pRetry != nil {
		a.feedRescue(now)
	}
}

// feedRescue moves held rescued flits into the parallel retry pipe, oldest
// first, while its replay window has room, outside the per-cycle budget
// like the rescue burst itself.
func (a *HeteroPHYAdapter) feedRescue(now int64) {
	n := 0
	for ; n < len(a.held) && !a.pRetry.Full(); n++ {
		a.pRetry.Accept(now, a.held[n].f, a.held[n].tag)
	}
	a.held = a.held[:copy(a.held, a.held[n:])]
}

func (a *HeteroPHYAdapter) dispatch(now int64) {
	pb, sb := a.pb, a.sb
	defer func() { a.pb, a.sb = pb, sb }()
	// High-priority bypass first: latency-sensitive flits are issued ahead
	// of the queue through the parallel PHY ("high-priority packets can be
	// dispatched early through the bypass", Sec. 4.2), never overtaking a
	// same-VC flit.
	if pb > 0 {
		a.bypassScan(now, &pb)
	}
	for pb > 0 || sb > 0 {
		if len(a.txq) == 0 {
			return
		}
		e := a.txq[0]
		var phy PHY
		var ok bool
		if e.f.Class == network.ClassLatencySensitive {
			// Bypass class: parallel PHY only (Sec. 4.2).
			phy, ok = PHYParallel, pb > 0
		} else {
			st := State{
				Now:            now,
				QueueLen:       len(a.txq),
				QueueCap:       a.txCap,
				ParallelBudget: pb,
				SerialBudget:   sb,
				Waited:         now - e.enq,
			}
			if a.sRetry != nil {
				st.SerialSent = a.sRetry.Stats.Transmits
				st.SerialRetries = a.sRetry.Stats.Retransmits
				st.SerialPending = a.sRetry.InFlight()
				st.SerialOldestAge = a.sRetry.OldestAge(now)
			}
			phy, ok = a.policy.Dispatch(st, e.f)
			if ok && ((phy == PHYParallel && pb == 0) || (phy == PHYSerial && sb == 0)) {
				ok = false
			}
		}
		if ok {
			a.popFront()
			a.issue(now, e.f, phy, &pb, &sb)
			continue
		}
		return
	}
}

// bypassScan issues latency-sensitive flits from anywhere in the look-ahead
// window onto the parallel PHY, preserving their relative order. A flit may
// only jump past flits of *other* virtual channels: per-VC issue order is
// the delivery contract (see ROB), so overtaking a same-VC flit is never
// allowed.
func (a *HeteroPHYAdapter) bypassScan(now int64, pb *int) {
	limit := min(len(a.txq), 1+a.LookAhead)
	for i := 0; i < limit && *pb > 0; {
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
		sb := 0
		a.issue(now, f, PHYParallel, pb, &sb)
	}
}

func (a *HeteroPHYAdapter) popFront() {
	copy(a.txq, a.txq[1:])
	a.txq[len(a.txq)-1] = txEntry{}
	a.txq = a.txq[:len(a.txq)-1]
}

func (a *HeteroPHYAdapter) issue(now int64, f network.Flit, phy PHY, pb, sb *int) {
	e := stamped{f: f, vsn: a.txVSN[f.VC]}
	a.txVSN[f.VC]++
	if f.Class == network.ClassInOrder {
		e.sn = a.txSN
		a.txSN++
	}
	// Retry-enabled PHYs charge the packet per transmission inside the pipe
	// (retransmissions burn energy again); plain PHYs at issue.
	if phy == PHYParallel {
		*pb--
		a.nParallel++
		if a.pRetry != nil {
			a.pRetry.Accept(now, f, e.tag())
			return
		}
		a.pkts.Charge(f.P, network.KindParallel, 1)
		a.ppipe.push(e)
	} else {
		*sb--
		a.nSerial++
		if a.sRetry != nil {
			a.sRetry.Accept(now, f, e.tag())
			return
		}
		a.pkts.Charge(f.P, network.KindSerial, 1)
		a.spipe.push(e)
	}
}

// ParallelFlits returns how many flits were issued to the parallel PHY.
func (a *HeteroPHYAdapter) ParallelFlits() uint64 { return a.nParallel }

// SerialFlits returns how many flits were issued to the serial PHY.
func (a *HeteroPHYAdapter) SerialFlits() uint64 { return a.nSerial }

// MaxQueue returns the TX queue high-water mark.
func (a *HeteroPHYAdapter) MaxQueue() int { return a.maxQ }

// MaxROBOccupancy returns the RX reorder-buffer high-water mark, for
// comparison against the Eq. 1 estimate.
func (a *HeteroPHYAdapter) MaxROBOccupancy() int { return a.rob.MaxOccupancy() }

// ParallelRetry returns the parallel PHY's retry pipe, or nil.
func (a *HeteroPHYAdapter) ParallelRetry() *network.RetryPipe { return a.pRetry }

// SerialRetry returns the serial PHY's retry pipe, or nil.
func (a *HeteroPHYAdapter) SerialRetry() *network.RetryPipe { return a.sRetry }

// Rescued returns how many flits the failover eviction path pulled off the
// serial PHY and re-issued through the parallel PHY.
func (a *HeteroPHYAdapter) Rescued() uint64 { return a.nRescued }

var (
	_ network.Adapter    = (*HeteroPHYAdapter)(nil)
	_ network.PacketUser = (*HeteroPHYAdapter)(nil)
)
