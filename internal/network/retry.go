package network

import "fmt"

// This file implements the link-layer retry protocol (UCIe-style CRC +
// replay, Sec. 2.1's reliability gap between interface classes): a go-back-N
// reliable pipe that wraps a bandwidth×delay wire with a TX replay buffer,
// link sequence numbers, a cumulative ack/nack side channel and a
// retransmission timeout. A plain link with retry armed carries its flits
// through one as its Adapter (EnableRetry); a hetero-PHY adapter runs one
// per armed PHY. internal/fault builds the error models that plug in via
// TxFault; a link without retry stages its runs in the plain delay line.
//
// Protocol invariants:
//
//   - Every accepted flit is delivered exactly once, in acceptance order:
//     the RX delivers only the flit whose link sequence number (lsn) equals
//     its expected counter and drops everything else, so in-order delivery
//     holds even across retransmissions, duplicates and wraparound of the
//     32-bit lsn space (equality is wrap-safe).
//   - Error-free timing is identical to the plain pipeline: a flit accepted
//     with wire budget left is transmitted the same cycle and arrives Delay
//     cycles later.
//   - A corrupted or lost flit is recovered by nack (RX saw the CRC fail or
//     an out-of-sequence arrival) or by the TX timeout (nothing arrived at
//     all, e.g. a dead wire); both rewind the send cursor to the oldest
//     unacknowledged entry — go-back-N. The RX nacks each gap once, so
//     one error costs one replay window; a lost retransmission is left
//     to the timeout.
//   - Retransmissions consume the same per-cycle wire bandwidth as first
//     transmissions and burn per-traversal energy each time: a flit
//     delivered by its k-th transmission is charged k traversals (charge).
//     Copies sent after the one that was delivered are charged to nobody.
//   - Every entry carries an opaque 32-bit tag from Accept to delivery
//     (hetero-PHY adapters keep their sequence stamps in it; plain links
//     pass 0).
//   - The replay window bounds acceptance: FreeSlots reaches zero when the
//     buffer is full, so upstream credit backpressure takes over and no
//     flit is ever dropped for lack of replay space.
type RetryPipe struct {
	bandwidth int
	delay     int
	window    int
	timeout   int64
	hook      TxFault
	kind      LinkKind // energy class a wire traversal is charged to

	// pkts is the packet table traversals are charged to. onLink marks the
	// pipe of a plain link (EnableRetry), whose first traversal per flit
	// the packet's hop count already implies; an adapter PHY's pipe
	// charges every transmission.
	pkts   *PacketTable
	onLink bool

	// TX: replay buffer in lsn order. replay[i] holds lsn base+i; next is
	// the lsn the next accepted flit gets (== base+len(replay)); sendIdx is
	// the cursor of the next entry to (re)transmit.
	replay  []retryEntry
	base    uint32
	next    uint32
	sendIdx int

	sent     int // wire transmissions this cycle
	accepted int // new flits accepted this cycle

	// Forward wire: delay stages, bandwidth flits per stage.
	slots    [][]wireFlit
	head     int
	inFlight int

	// RX: next lsn to deliver downstream. nacked is set when the RX nacks a
	// gap at expected and cleared whenever expected advances: one nack per
	// gap (PCIe's NAK_SCHEDULED), so the arrivals already in flight behind
	// the bad flit are dropped without rewinding the sender again.
	expected uint32
	nacked   bool

	// Reverse ack channel, same delay as the wire. Like credit return it is
	// modeled without bandwidth limits (at most one coalesced message per
	// cycle is generated) and is unaffected by forward-path faults.
	ackSlots     [][]ackMsg
	ackHead      int
	acksInFlight int

	Stats RetryStats
}

type retryEntry struct {
	f      Flit
	tag    uint32
	enq    int64  // acceptance cycle (age telemetry)
	sentAt int64  // last transmission cycle, -1 before the first
	sends  uint64 // transmissions so far
}

type wireFlit struct {
	f     Flit
	tag   uint32
	lsn   uint32
	bad   bool   // CRC check will fail at the RX
	sends uint64 // which transmission of its entry this copy is
}

type ackMsg struct {
	ack  uint32 // cumulative: RX has delivered every lsn below this
	nack bool   // rewind and retransmit from ack
}

// TxFault injects transmission faults into a retry pipe. Implementations
// (internal/fault) must be pure functions of (their own private RNG stream,
// now): faults are evaluated per transmission event, never per cycle, so
// quiescence fast-forward cannot change outcomes.
type TxFault interface {
	// Corrupt reports whether this transmission arrives with a failing CRC.
	Corrupt(now int64) bool
	// Down reports whether the wire is dead this cycle; a transmission
	// attempted while down is lost entirely (no arrival, no CRC event).
	Down(now int64) bool
}

// RetryStats counts protocol events on one reliable pipe.
type RetryStats struct {
	Transmits   uint64 // wire transmissions, including retransmissions
	Retransmits uint64 // transmissions of an entry already sent before
	Delivered   uint64 // flits handed downstream by the RX
	Corrupted   uint64 // transmissions marked bad by the fault hook
	Dropped     uint64 // arrivals discarded at the RX (bad CRC or out of sequence)
	Nacks       uint64 // nack-triggered rewinds
	Timeouts    uint64 // timeout-triggered rewinds
	Evicted     uint64 // undelivered flits rescued off the pipe by failover
}

// RetryRate returns the fraction of wire transmissions that were
// retransmissions (0 when nothing was sent).
func (s RetryStats) RetryRate() float64 {
	if s.Transmits == 0 {
		return 0
	}
	return float64(s.Retransmits) / float64(s.Transmits)
}

// Add accumulates counters from another pipe.
func (s *RetryStats) Add(o RetryStats) {
	s.Transmits += o.Transmits
	s.Retransmits += o.Retransmits
	s.Delivered += o.Delivered
	s.Corrupted += o.Corrupted
	s.Dropped += o.Dropped
	s.Nacks += o.Nacks
	s.Timeouts += o.Timeouts
	s.Evicted += o.Evicted
}

// NewRetryPipe builds a reliable pipe over a bandwidth×delay wire whose
// transmissions are charged to energy class kind on the packets of pkts.
// window <= 0 derives a replay capacity that sustains full bandwidth across
// the ack round trip; timeout <= 0 derives a default comfortably above the
// round trip (it is always clamped to at least one round trip plus slack,
// or healthy traffic would time out spuriously).
func NewRetryPipe(bandwidth, delay, window, timeout int, hook TxFault, kind LinkKind, pkts *PacketTable) *RetryPipe {
	if delay < 1 {
		delay = 1
	}
	if window <= 0 {
		window = bandwidth * (2*delay + 4)
	}
	if window < bandwidth {
		window = bandwidth
	}
	if timeout <= 0 {
		timeout = 4*delay + 16
	}
	if timeout < 2*delay+2 {
		timeout = 2*delay + 2
	}
	return &RetryPipe{
		bandwidth: bandwidth,
		delay:     delay,
		window:    window,
		timeout:   int64(timeout),
		hook:      hook,
		kind:      kind,
		pkts:      pkts,
		slots:     make([][]wireFlit, delay),
		ackSlots:  make([][]ackMsg, delay),
	}
}

// FreeSlots returns how many more flits the pipe can accept this cycle:
// ingress is metered by the wire bandwidth and bounded by replay space.
func (rp *RetryPipe) FreeSlots() int {
	return min(rp.bandwidth-rp.accepted, rp.window-len(rp.replay))
}

// Full reports whether the replay buffer holds window flits, so Accept
// would panic whatever the bandwidth left this cycle.
func (rp *RetryPipe) Full() bool { return len(rp.replay) >= rp.window }

// Accept appends a flit with its tag to the replay buffer and, when the
// send cursor is already caught up and wire budget remains, transmits it
// this same cycle — so the error-free path adds zero latency over the plain
// pipeline. It panics when the replay buffer is Full: every caller must
// have checked FreeSlots, or Full for a burst outside the per-cycle
// budget, as a switch grant checks credits.
func (rp *RetryPipe) Accept(now int64, f Flit, tag uint32) {
	if rp.Full() {
		panic(fmt.Sprintf("network: retry pipe accepted a flit with its replay buffer full (window %d)", rp.window))
	}
	rp.replay = append(rp.replay, retryEntry{f: f, tag: tag, enq: now, sentAt: -1})
	rp.next++
	rp.accepted++
	if rp.sendIdx == len(rp.replay)-1 && rp.sent < rp.bandwidth {
		rp.transmit(now)
	}
}

// transmit puts replay[sendIdx] on the wire, counting the transmission and
// consulting the fault hook. The caller guarantees wire budget.
func (rp *RetryPipe) transmit(now int64) {
	e := &rp.replay[rp.sendIdx]
	lsn := rp.base + uint32(rp.sendIdx)
	rp.Stats.Transmits++
	if e.sentAt >= 0 {
		rp.Stats.Retransmits++
	}
	e.sentAt = now
	rp.sendIdx++
	rp.sent++
	e.sends++
	if rp.hook != nil && rp.hook.Down(now) {
		// Dead wire: the flit never reaches the far side; the replay copy
		// stays and the timeout rewinds to it.
		return
	}
	bad := rp.hook != nil && rp.hook.Corrupt(now)
	if bad {
		rp.Stats.Corrupted++
	}
	slot := (rp.head + rp.delay - 1) % rp.delay
	rp.slots[slot] = append(rp.slots[slot], wireFlit{f: e.f, tag: e.tag, lsn: lsn, bad: bad, sends: e.sends})
	rp.inFlight++
}

// charge books the sends wire transmissions a flit needed to leave this
// pipe on its packet: all of them on an adapter PHY, only the surplus over
// the first on a plain link (whose first traversal the hop count implies).
// sends is 0 for a flit rescued before its first transmission.
func (rp *RetryPipe) charge(f Flit, sends uint64) {
	if rp.onLink && sends > 0 {
		sends--
	}
	if sends > 0 {
		rp.pkts.Charge(f.P, rp.kind, sends)
	}
}

// Tick advances the pipe one cycle: process returning acks at the TX,
// deliver/drop arrivals at the RX (emitting one coalesced ack/nack),
// check the retransmission timeout, then pump the send cursor with a fresh
// wire budget. deliver receives each flit with the tag it was accepted with.
func (rp *RetryPipe) Tick(now int64, deliver func(Flit, uint32)) {
	// Reverse channel: acks sent delay cycles ago reach the TX.
	acks := rp.ackSlots[rp.ackHead]
	rp.ackSlots[rp.ackHead] = acks[:0]
	rp.ackHead = (rp.ackHead + 1) % rp.delay
	for _, m := range acks {
		rp.acksInFlight--
		rp.processAck(m)
	}

	// Forward wire: the RX checks each arrival's CRC and sequence number.
	arr := rp.slots[rp.head]
	rp.slots[rp.head] = arr[:0]
	rp.head = (rp.head + 1) % rp.delay
	progress, nack := false, false
	for _, wf := range arr {
		rp.inFlight--
		if !wf.bad && wf.lsn == rp.expected {
			rp.expected++
			rp.nacked = false
			rp.Stats.Delivered++
			progress = true
			rp.charge(wf.f, wf.sends)
			deliver(wf.f, wf.tag)
		} else {
			// Bad CRC, or the out-of-sequence tail behind one: go-back-N
			// discards it. The first drop at this gap nacks, rewinding the
			// sender; the rest were sent before that rewind.
			rp.Stats.Dropped++
			if !rp.nacked {
				rp.nacked, nack = true, true
			}
		}
	}
	if progress || nack {
		slot := (rp.ackHead + rp.delay - 1) % rp.delay
		rp.ackSlots[slot] = append(rp.ackSlots[slot], ackMsg{ack: rp.expected, nack: nack})
		rp.acksInFlight++
	}

	// Timeout: the oldest unacked transmission has waited a full round trip
	// plus slack — lost flit, lost ack or dead wire. Rewind and resend.
	if rp.sendIdx > 0 && now-rp.replay[0].sentAt >= rp.timeout {
		rp.sendIdx = 0
		rp.Stats.Timeouts++
	}

	// New cycle: fresh budgets, then pump retransmissions and backlog.
	rp.sent = 0
	rp.accepted = 0
	for rp.sendIdx < len(rp.replay) && rp.sent < rp.bandwidth {
		rp.transmit(now)
	}
}

// processAck applies one coalesced ack/nack at the TX: pop every entry the
// cumulative ack covers, then rewind the send cursor on nack. Stale
// messages (covering already-popped entries) are ignored; the uint32
// distance check is wraparound-safe.
func (rp *RetryPipe) processAck(m ackMsg) {
	n := int(m.ack - rp.base)
	if n > 0 && n <= len(rp.replay) {
		copy(rp.replay, rp.replay[n:])
		for i := len(rp.replay) - n; i < len(rp.replay); i++ {
			rp.replay[i] = retryEntry{}
		}
		rp.replay = rp.replay[:len(rp.replay)-n]
		rp.base = m.ack
		rp.sendIdx -= n
		if rp.sendIdx < 0 {
			rp.sendIdx = 0
		}
	}
	if m.nack && rp.sendIdx > 0 {
		// Go-back-N: after the pop above, replay[0] is exactly the flit the
		// RX is waiting for.
		rp.sendIdx = 0
		rp.Stats.Nacks++
	}
}

// Busy reports whether the pipe still needs per-cycle ticks: any replay
// entry (delivered-but-unacked included), wire or ack traffic, or activity
// this cycle. This is what keeps a retry link on the engine's forward wake
// list so quiescence fast-forward never skips a pending retransmission or
// timeout.
func (rp *RetryPipe) Busy() bool {
	return len(rp.replay) > 0 || rp.inFlight > 0 || rp.acksInFlight > 0 ||
		rp.sent > 0 || rp.accepted > 0
}

// InFlight returns the number of flits accepted but not yet delivered
// downstream (the link-resident count; delivered-but-unacked replay copies
// are excluded, their flit lives downstream now).
func (rp *RetryPipe) InFlight() int {
	return int(rp.next - rp.expected)
}

// OldestAge returns how many cycles the oldest undelivered flit has been
// resident, or 0 when none is.
func (rp *RetryPipe) OldestAge(now int64) int64 {
	idx := int(rp.expected - rp.base)
	if idx >= len(rp.replay) {
		return 0
	}
	return now - rp.replay[idx].enq
}

// UndeliveredVCs implements Undelivered: fn gets the VC of every
// accepted-but-undelivered flit. Delivered-but-unacked replay copies hold
// no downstream credit: their flit was handed over.
func (rp *RetryPipe) UndeliveredVCs(fn func(VCID)) {
	for i := int(rp.expected - rp.base); i < len(rp.replay); i++ {
		fn(rp.replay[i].f.VC)
	}
}

// FailoverDrain evicts every accepted-but-undelivered flit, invoking
// reissue for each (with its tag) in acceptance order, and resets the pipe to a clean
// synchronized state (wire and ack channels cleared, TX and RX sequence
// counters realigned). The failover policy uses it to rescue flits stuck
// behind a dead serial PHY and re-issue them on the parallel PHY; clearing
// the wire guarantees no straggler can ever deliver a second copy.
// It returns the number of evicted flits.
func (rp *RetryPipe) FailoverDrain(reissue func(Flit, uint32)) int {
	start := int(rp.expected - rp.base)
	n := 0
	for i := start; i < len(rp.replay); i++ {
		e := &rp.replay[i]
		rp.charge(e.f, e.sends)
		reissue(e.f, e.tag)
		n++
	}
	rp.Stats.Evicted += uint64(n)
	for i := range rp.replay {
		rp.replay[i] = retryEntry{}
	}
	rp.replay = rp.replay[:0]
	rp.base, rp.expected = rp.next, rp.next
	rp.nacked = false
	rp.sendIdx = 0
	for i := range rp.slots {
		rp.slots[i] = rp.slots[i][:0]
	}
	rp.inFlight = 0
	for i := range rp.ackSlots {
		rp.ackSlots[i] = rp.ackSlots[i][:0]
	}
	rp.acksInFlight = 0
	return n
}

// retryLink is the Adapter EnableRetry installs on a plain link: its
// retry pipe, with the entry tag (which plain links do not use) dropped.
type retryLink struct{ *RetryPipe }

func (r retryLink) Accept(now int64, f Flit) { r.RetryPipe.Accept(now, f, 0) }

func (r retryLink) Tick(now int64, deliver func(Flit)) {
	r.RetryPipe.Tick(now, func(f Flit, _ uint32) { deliver(f) })
}

// EnableRetry arms the link-layer retry protocol on a plain link, charging
// retransmissions to the packets of pkts (the network's, Network.Packets):
// the link's flits then travel through a retry pipe, its Adapter. window
// and timeout <= 0 pick defaults from the link's bandwidth and delay; hook
// may be nil (reliable wire, retry machinery only). Adapter links enable
// retry per PHY via the adapter instead. It may be called before or after
// Finalize (fault.Attach arms it on a built system); on a finalized network
// the link's output is derived again (bindOutput).
func (l *Link) EnableRetry(hook TxFault, window, timeout int, pkts *PacketTable) {
	if _, armed := l.Adapter.(retryLink); l.Adapter != nil && !armed {
		panic("network: EnableRetry on an adapter link; enable retry on the adapter's PHYs")
	}
	if l.inFlight != 0 {
		// Switching protocols mid-flight would orphan the flits staged in
		// the destination ring.
		panic("network: EnableRetry on a link with flits in flight; enable retry before stepping traffic")
	}
	rp := NewRetryPipe(l.Bandwidth, l.Delay, window, timeout, hook, l.Kind, pkts)
	rp.onLink = true
	l.Adapter = retryLink{rp}
	if l.srcOut != nil {
		l.bindOutput()
	}
}

// Retry returns the link's retry pipe, or nil when retry is disabled.
func (l *Link) Retry() *RetryPipe {
	r, _ := l.Adapter.(retryLink)
	return r.RetryPipe
}
