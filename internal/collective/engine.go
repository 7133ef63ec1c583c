package collective

import (
	"fmt"
	"sort"

	"heteroif/internal/network"
)

// msgState tracks one program message through execution.
type msgState struct {
	// deps is the count of unresolved dependencies; -1 once completed.
	deps int32
	// pkts is the count of in-flight packets for an offered message.
	pkts int32
	// offeredAt/doneAt record injection and final-delivery cycles (-1
	// until they happen).
	offeredAt, doneAt int64
}

// readyEntry is a heap element: message m becomes injectable at cycle at.
type readyEntry struct {
	at int64
	m  int32
}

// Engine executes a collective Program against a network through the
// RunWith closed-loop hooks. It installs itself as the network's
// OnDeliver observer (one engine per network at a time; constructing a
// new engine displaces the previous one), splits each eligible message
// into packets, and releases dependent messages as deliveries arrive.
//
// Determinism: eligible messages are injected in (readyAt, message index)
// order, packet IDs come from the network's own counter, and deliveries
// are observed in the network's deterministic ejection order, so a
// program's execution is bit-identical across runs and worker counts.
type Engine struct {
	Net  *network.Network
	Prog *Program

	state []msgState
	// dependents[depOff[m]:depOff[m+1]] lists the messages that wait for
	// message m, in message order (the dependency lists inverted, CSR).
	depOff     []int32
	dependents []int32
	ready      []readyEntry // min-heap on (at, m)
	byPkt      map[uint64]int32

	started    bool
	startAt    int64
	remaining  int // messages not yet completed
	inflight   int // packets in the network
	commStart  int64
	commCycles int64
	packets    int64
	flits      int64
	firstOffer int64
	lastDone   int64
	stepFirst  []int64 // per-step earliest offer
	stepLast   []int64 // per-step latest delivery
}

// NewEngine validates the program against the network, inverts the
// dependency graph, verifies acyclicity, and installs the delivery
// observer. The engine does not inject anything until Drive runs (or Run
// is called).
func NewEngine(net *network.Network, prog *Program) (*Engine, error) {
	if err := prog.Validate(len(net.Nodes)); err != nil {
		return nil, err
	}
	n := len(prog.Msgs)
	e := &Engine{
		Net:        net,
		Prog:       prog,
		state:      make([]msgState, n),
		depOff:     make([]int32, n+1),
		byPkt:      make(map[uint64]int32),
		startAt:    -1,
		firstOffer: -1,
		lastDone:   -1,
		remaining:  n,
		stepFirst:  make([]int64, prog.Steps),
		stepLast:   make([]int64, prog.Steps),
	}
	for s := range e.stepFirst {
		e.stepFirst[s], e.stepLast[s] = -1, -1
	}
	for i := range e.state {
		e.state[i] = msgState{deps: int32(len(prog.Deps[i])), offeredAt: -1, doneAt: -1}
	}
	for _, deps := range prog.Deps {
		for _, d := range deps {
			e.depOff[d+1]++
		}
	}
	for m := 0; m < n; m++ {
		e.depOff[m+1] += e.depOff[m]
	}
	e.dependents = make([]int32, e.depOff[n])
	fill := make([]int32, n) // indeg below reuses it
	copy(fill, e.depOff[:n])
	for i, deps := range prog.Deps {
		for _, d := range deps {
			e.dependents[fill[d]] = int32(i)
			fill[d]++
		}
	}
	// Kahn's algorithm over the inverted graph: every message must be
	// reachable from the zero-dependency roots or the program deadlocks.
	indeg := fill
	queue := make([]int32, 0, n)
	for i := range e.state {
		indeg[i] = e.state[i].deps
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		m := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, d := range e.dependentsOf(m) {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if seen != n {
		return nil, fmt.Errorf("collective: %s has a dependency cycle (%d of %d msgs unreachable)", prog.Name, n-seen, n)
	}
	net.OnDeliver = e.delivered
	return e, nil
}

// dependentsOf returns the messages that wait for message m.
func (e *Engine) dependentsOf(m int32) []int32 {
	return e.dependents[e.depOff[m]:e.depOff[m+1]]
}

// heap push/pop on (at, m): a hand-rolled min-heap avoids the interface
// boxing of container/heap on this hot path.
func (e *Engine) push(at int64, m int32) {
	e.ready = append(e.ready, readyEntry{at, m})
	i := len(e.ready) - 1
	for i > 0 {
		p := (i - 1) / 2
		if less(e.ready[i], e.ready[p]) {
			e.ready[i], e.ready[p] = e.ready[p], e.ready[i]
			i = p
			continue
		}
		break
	}
}

func (e *Engine) pop() readyEntry {
	top := e.ready[0]
	last := len(e.ready) - 1
	e.ready[0] = e.ready[last]
	e.ready = e.ready[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(e.ready) && less(e.ready[l], e.ready[s]) {
			s = l
		}
		if r < len(e.ready) && less(e.ready[r], e.ready[s]) {
			s = r
		}
		if s == i {
			return top
		}
		e.ready[i], e.ready[s] = e.ready[s], e.ready[i]
		i = s
	}
}

// less orders the ready heap by eligibility cycle, then message index —
// the tie-break that pins injection order (and thus packet IDs) across
// runs.
func less(a, b readyEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.m < b.m
}

// startOnce seeds the ready heap with the program's zero-dependency roots
// on the first Drive call.
func (e *Engine) startOnce(now int64) {
	if e.started {
		return
	}
	e.started = true
	e.startAt = now
	for i := range e.state {
		if e.state[i].deps == 0 {
			e.push(now+e.Prog.Msgs[i].Compute, int32(i))
		}
	}
}

// Drive implements traffic.Driver: offer every message whose eligibility
// cycle has arrived, in (readyAt, index) order.
func (e *Engine) Drive(now int64) {
	e.startOnce(now)
	for len(e.ready) > 0 && e.ready[0].at <= now {
		e.offer(e.pop().m, now)
	}
}

// offer injects message m at cycle now, splitting the payload into
// packets of at most the configured packet length. Degenerate messages
// (no payload, or source == destination) act as pure synchronization
// points and complete immediately.
func (e *Engine) offer(m int32, now int64) {
	msg := &e.Prog.Msgs[m]
	st := &e.state[m]
	st.offeredAt = now
	if e.firstOffer < 0 || now < e.firstOffer {
		e.firstOffer = now
	}
	if s := msg.Step; e.stepFirst[s] < 0 || now < e.stepFirst[s] {
		e.stepFirst[s] = now
	}
	if msg.Flits <= 0 || msg.Src == msg.Dst {
		e.complete(m, now)
		return
	}
	plen := e.Net.Cfg.PacketLength
	for left := msg.Flits; left > 0; left -= plen {
		l := plen
		if left < plen {
			l = left
		}
		p := e.Net.NewPacket(msg.Src, msg.Dst, l, now)
		p.Class = e.Prog.Class
		e.byPkt[p.ID] = m
		st.pkts++
		if e.inflight == 0 {
			e.commStart = now
		}
		e.inflight++
		e.packets++
		e.flits += int64(l)
		e.Net.Offer(p)
	}
}

// delivered is the OnDeliver observer: packets not born from this engine
// (background traffic sharing the network) are ignored.
func (e *Engine) delivered(p *network.Packet) {
	m, ok := e.byPkt[p.ID]
	if !ok {
		return
	}
	delete(e.byPkt, p.ID)
	e.inflight--
	if e.inflight == 0 {
		// The stretch from first outstanding packet to last delivery had
		// traffic in the network; everything between such stretches is
		// stall (compute or dependency wait).
		e.commCycles += e.Net.Now - e.commStart
	}
	st := &e.state[m]
	st.pkts--
	if st.pkts == 0 {
		e.complete(m, e.Net.Now)
	}
}

// complete marks message m done at cycle now and releases its dependents.
func (e *Engine) complete(m int32, now int64) {
	st := &e.state[m]
	st.deps = -1
	st.doneAt = now
	e.remaining--
	if now > e.lastDone {
		e.lastDone = now
	}
	if s := e.Prog.Msgs[m].Step; now > e.stepLast[s] {
		e.stepLast[s] = now
	}
	for _, d := range e.dependentsOf(m) {
		ds := &e.state[d]
		ds.deps--
		if ds.deps == 0 {
			// Earliest injection is the cycle after the releasing
			// delivery, plus the dependent's compute phase.
			e.push(now+1+e.Prog.Msgs[d].Compute, d)
		}
	}
}

// NextInjection implements the traffic.Driver fast-forward contract: the
// earliest cycle ≥ now at which Drive may offer a packet, or negative
// once the program has fully completed. While messages remain blocked on
// in-flight deliveries it returns now — the network is not idle then, so
// no skip is forfeited, and a deadlocked program cannot silence the
// engine.
func (e *Engine) NextInjection(now int64) int64 {
	if !e.started {
		return now
	}
	if len(e.ready) > 0 {
		if at := e.ready[0].at; at > now {
			return at
		}
		return now
	}
	if e.remaining > 0 {
		return now
	}
	return -1
}

// Done reports whether every message has completed.
func (e *Engine) Done() bool { return e.started && e.remaining == 0 }

// Run drives the network until the program completes or budget cycles
// elapse, in bounded chunks so completion is detected promptly. It
// returns the report on success and an error naming the stuck messages on
// budget exhaustion or network deadlock.
func (e *Engine) Run(budget int64) (Report, error) {
	deadline := e.Net.Now + budget
	for !e.Done() {
		chunk := int64(4096)
		if left := deadline - e.Net.Now; left < chunk {
			chunk = left
		}
		if chunk <= 0 {
			return Report{}, fmt.Errorf("collective: %s incomplete after %d cycles: %s", e.Prog.Name, budget, e.stuck())
		}
		if err := e.Net.RunWith(chunk, e.Drive, e.NextInjection); err != nil {
			return Report{}, fmt.Errorf("collective: %s: %w (stuck: %s)", e.Prog.Name, err, e.stuck())
		}
	}
	return e.Report(), nil
}

// stuck summarizes incomplete messages for error reporting.
func (e *Engine) stuck() string {
	var blocked, offered int
	first := int32(-1)
	for i := range e.state {
		st := &e.state[i]
		if st.deps == -1 {
			continue
		}
		if st.offeredAt >= 0 {
			offered++
		} else {
			blocked++
		}
		if first < 0 {
			first = int32(i)
		}
	}
	if first < 0 {
		return "none"
	}
	m := e.Prog.Msgs[first]
	return fmt.Sprintf("%d in flight, %d blocked; first msg %d (step %d, %d->%d)",
		offered, blocked, first, m.Step, m.Src, m.Dst)
}

// StepReport summarizes one step of a completed program.
type StepReport struct {
	Step int32 `json:"step"`
	Msgs int   `json:"msgs"`
	// FirstOffer/LastDelivery are absolute cycles; Span is their
	// difference. Overlap is how many cycles this step's first injection
	// preceded the previous step's last delivery — the pipelining the
	// dependency structure permits (0 for strictly serialized steps).
	FirstOffer   int64 `json:"first_offer"`
	LastDelivery int64 `json:"last_delivery"`
	Span         int64 `json:"span"`
	Overlap      int64 `json:"overlap"`
}

// Report summarizes a completed program's execution.
type Report struct {
	Name         string `json:"name"`
	Participants int    `json:"participants"`
	Msgs         int    `json:"msgs"`
	Packets      int64  `json:"packets"`
	Flits        int64  `json:"flits"`
	// StartAt is the cycle the engine started; FirstOffer the first
	// injection; LastDelivery the final completion. Elapsed is the
	// end-to-end completion time (LastDelivery − StartAt).
	StartAt      int64 `json:"start_at"`
	FirstOffer   int64 `json:"first_offer"`
	LastDelivery int64 `json:"last_delivery"`
	Elapsed      int64 `json:"elapsed"`
	// CommCycles counts cycles with at least one collective packet in
	// flight; StallCycles is the rest of Elapsed — compute phases and
	// dependency waits with an empty network.
	CommCycles  int64        `json:"comm_cycles"`
	StallCycles int64        `json:"stall_cycles"`
	Steps       []StepReport `json:"steps"`
}

// Report builds the completion report. It is meaningful once Done.
func (e *Engine) Report() Report {
	r := Report{
		Name:         e.Prog.Name,
		Participants: e.Prog.Participants,
		Msgs:         len(e.Prog.Msgs),
		Packets:      e.packets,
		Flits:        e.flits,
		StartAt:      e.startAt,
		FirstOffer:   e.firstOffer,
		LastDelivery: e.lastDone,
	}
	if e.lastDone >= 0 && e.startAt >= 0 {
		r.Elapsed = e.lastDone - e.startAt
	}
	r.CommCycles = e.commCycles
	if r.Elapsed > r.CommCycles {
		r.StallCycles = r.Elapsed - r.CommCycles
	}
	counts := make([]int, e.Prog.Steps)
	for i := range e.Prog.Msgs {
		counts[e.Prog.Msgs[i].Step]++
	}
	prevLast := int64(-1)
	for s := 0; s < e.Prog.Steps; s++ {
		sr := StepReport{
			Step:         int32(s),
			Msgs:         counts[s],
			FirstOffer:   e.stepFirst[s],
			LastDelivery: e.stepLast[s],
		}
		if sr.LastDelivery >= 0 && sr.FirstOffer >= 0 {
			sr.Span = sr.LastDelivery - sr.FirstOffer
		}
		if s > 0 && prevLast >= 0 && sr.FirstOffer >= 0 && sr.FirstOffer < prevLast {
			sr.Overlap = prevLast - sr.FirstOffer
		}
		prevLast = sr.LastDelivery
		r.Steps = append(r.Steps, sr)
	}
	return r
}

// SortedStuck returns the indices of incomplete messages in index order
// (test/debug helper).
func (e *Engine) SortedStuck() []int {
	var out []int
	for i := range e.state {
		if e.state[i].deps != -1 {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
