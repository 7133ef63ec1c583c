package network

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// Network is a complete multi-chiplet interconnection system: routers,
// links, a routing algorithm, per-node injection sources and the
// synchronous cycle engine.
//
// Each cycle proceeds in three steps (see DESIGN.md):
//  1. every busy link advances one stage, delivering flits into downstream
//     input buffers and completing credit round trips;
//  2. every busy router performs RC/VA/SA and pushes granted flits into
//     its output links (invisible downstream until the link delay elapses,
//     so router iteration order is immaterial);
//  3. injection sources feed the local ports.
//
// Step runs 1 as one phase and 2+3 as a second on every shard of the
// network (see parallel.go); Finalize cuts the shards (Config.Workers).
type Network struct {
	Cfg     Config
	Nodes   []*Router
	Links   []*Link
	Routing Routing
	Rand    *rand.Rand

	// Now is the current cycle.
	Now int64

	// Sink is invoked when a packet's tail flit is ejected. Statistics
	// collectors hook in here.
	Sink func(*Packet)

	// OnDeliver, when non-nil, is invoked after Sink for every delivered
	// packet, in the same deterministic ejection order (ascending
	// destination node within a cycle: the scratch merge runs in shard
	// order and shards are ascending node ranges). Closed-loop workload
	// drivers (internal/collective) observe deliveries here without
	// displacing the statistics sink. Like Sink, the *Packet must not be
	// retained past the call: the packet's slot is reused (NewPacket).
	OnDeliver func(*Packet)

	// Deprecated: PoolPackets is ignored. Every delivered packet's slot in
	// the packet table is reused (NewPacket); the field stays only for
	// callers that still assign it.
	PoolPackets bool

	sources []source

	// Wake state (see the package comment in flit.go): per-cycle work is
	// found here instead of by scanning every component. nodeWake/srcWake
	// are bitmaps over node indices — bitmap scans yield ascending order,
	// which Sink-order determinism requires. The lists of links with
	// non-empty forward/credit pipelines (membership mirrored by
	// Link.fwdQueued/crQueued) live per shard in shards.
	nodeWake []uint64
	srcWake  []uint64

	// pkts owns every packet (NewPacket); flits carry refs into it.
	pkts PacketTable

	nextPktID  uint64
	flitsIn    int64 // flits injected into the network
	flitsOut   int64 // flits ejected
	pktsIn     int64
	pktsOut    int64
	moved      uint64 // flit movements this cycle (watchdog, load window)
	idleStreak int64
	steps      int64 // Step calls: cycles stepped rather than fast-forwarded

	// The load window (see loadWindow): movements summed over the steps
	// counted so far.
	loadMoved uint64
	loadSteps int

	// DeadlockAt records the cycle at which the watchdog fired, or -1.
	// livelock names the packet when it fired because one reached
	// maxPacketHops rather than because nothing moved.
	DeadlockAt int64
	livelock   string

	// shards is the sharding of the cycle engine: nil until Finalize cuts
	// it, re-cut by SetWorkers, SetShardCuts and the load (reshard).
	shards *shardState
	// shardCuts are the word-aligned preferred shard boundaries (chiplet
	// rows) declared via SetShardCuts, consulted by the partitioner.
	shardCuts []int

	// stability is the routing algorithm's declared RouteStability, read by
	// Finalize; it gates the per-VC candidate memoization in
	// Router.allocate.
	stability RouteStability

	// LivelockHopBound restricts a packet to the escape subnetwork once it
	// has taken this many hops (0 = disabled). Minimal-path adaptive
	// routing never comes close; the bound matters only when faults or
	// stale distance heuristics would otherwise let a packet wander (the
	// "time-out packets" rule of Sec. 5.3.2 applied to routing).
	LivelockHopBound int

	// GrantsByKind counts switch-allocation grants (flits) by output
	// channel kind, a cheap utilization probe for diagnostics.
	GrantsByKind [8]uint64
	// VAFailures counts cycles an input VC held a routable head flit but
	// could not obtain any output VC.
	VAFailures uint64
}

// source is a per-node injection queue: packets wait here (unbounded — the
// source-queueing delay is part of measured latency) until the injection
// port accepts their flits.
type source struct {
	q      []*Packet
	head   int
	cur    *Packet
	curSeq int32
	curVC  VCID
}

// New creates an empty network with the given configuration. Topology
// builders add nodes and links, then attach a routing algorithm.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{
		Cfg:        cfg,
		Rand:       rand.New(rand.NewSource(cfg.Seed)),
		DeadlockAt: -1,
	}, nil
}

// AddNodes creates n routers, each declaring its local ports (injection
// input and ejection output, index 0), and their injection sources. The
// routers share one allocation.
func (net *Network) AddNodes(n int) {
	routers := make([]Router, n)
	net.Nodes = slices.Grow(net.Nodes, n)
	for i := range routers {
		r := &routers[i]
		*r = Router{ID: NodeID(len(net.Nodes)), pkts: &net.pkts, nIn: 1, nOut: 1, ejBW: net.Cfg.EjectionBandwidth}
		net.Nodes = append(net.Nodes, r)
	}
	net.sources = make([]source, len(net.Nodes))
}

// Connect wires a unidirectional link of the given kind from node a to node
// b and returns it. Hetero-PHY adapters are attached by the caller
// afterwards via SetAdapter. The link declares the next output port of a
// and the next input port of b; Finalize gives them their storage.
func (net *Network) Connect(kind LinkKind, a, b NodeID) *Link {
	src, dst := net.Nodes[a], net.Nodes[b]
	l := NewLink(&net.Cfg, len(net.Links), kind, a, src.nOut, b, dst.nIn)
	src.nOut++
	dst.nIn++
	net.Links = append(net.Links, l)
	return l
}

// SetAdapter attaches a hetero-PHY adapter to a link. An adapter that
// charges traversals to packets (PacketUser) is handed the packet table.
// On a finalized network the link's output is derived again (bindOutput).
func (net *Network) SetAdapter(l *Link, a Adapter) {
	l.Adapter = a
	if u, ok := a.(PacketUser); ok {
		u.BindPackets(&net.pkts)
	}
	if l.srcOut != nil {
		l.bindOutput()
	}
}

// Finalize ends the declaration of a network; it is called once, after
// topology construction and the choice of Routing, before the first Step
// (DESIGN.md, "Build sequence"). It gives every declared port, VC state,
// flit ring, router work array and link delay line its storage and derives
// every link's output (materialise), reads the routing's stability and cuts
// the shards Config.Workers asks for (0: autoShards by size), starting
// their workers.
func (net *Network) Finalize() {
	if net.shards != nil {
		panic("network: Finalize called on a finalized network; a network is finalized once")
	}
	net.materialise()
	if s, ok := net.Routing.(Stable); ok {
		net.stability = s.Stability()
	}
	n := net.Cfg.Workers
	if n == 0 {
		n = net.autoShards(0)
	}
	net.setShards(n)
}

// materialise allocates the storage of every router's ports, VC states,
// flit rings and work arrays and of every link's delay lines, each kind in
// one exactly sized per-network slab carved in (router, port, VC) order —
// the structure-of-arrays layout behind the saturated hot path — except
// the rings, which come in chunks of whole routers (ringChunkFlits). Until
// then ports are only declared (Router.nIn/nOut, the links' port indices),
// so each piece is allocated once, in its final home, and starts empty:
// the work state needs initialising only where empty is not zero
// (waitSlot, the switch-budget prologue, the wake bits of sources that
// were offered packets before Finalize).
//
// Shard ownership is unchanged by the merged backing arrays: a shard's
// routers own disjoint index ranges of every slab (shards are contiguous
// node ranges), and the single-producer staging regions of plain links
// stay confined to their ring's slice window.
func (net *Network) materialise() {
	// ringChunkFlits is the least number of flit slots in one chunk of ring
	// storage (768 KB; the last chunk may be smaller). The rings of
	// consecutive routers stay contiguous, which is all the hot path needs,
	// while no allocation needs a hole of tens of megabytes: a process that
	// builds one system after another reuses the pages of the last one even
	// when a few live spans are scattered over them, instead of mapping a
	// second home for the whole array (peak RSS then differed by the array's
	// size from run to run).
	const ringChunkFlits = 96 << 10

	cfg := &net.Cfg
	nv := cfg.VCs
	nIn, nOut, nWords := 0, 0, 0
	for _, r := range net.Nodes {
		if r.nIn*nv > math.MaxInt16 || r.nOut > math.MaxInt16 {
			panic(fmt.Sprintf("network: router %d has %d input VCs and %d output ports; slot and port indices are 16-bit", r.ID, r.nIn*nv, r.nOut))
		}
		nIn += r.nIn
		nOut += r.nOut
		nWords += (4 + r.nOut) * ((r.nIn*nv + 63) >> 6)
	}
	inSlab := make([]InPort, nIn)
	outSlab := make([]OutPort, nOut)
	vcSlab := make([]VCState, nIn*nv)
	wordSlab := make([]uint64, nWords)
	slotSlab := make([]int16, nIn*nv)
	baseSlab := make([]int, nOut)
	dynSlab := make([]int32, nOut)

	// Ports: the local ones here, the others from their link.
	for _, r := range net.Nodes {
		r.In, inSlab = inSlab[:r.nIn:r.nIn], inSlab[r.nIn:]
		r.Out, outSlab = outSlab[:r.nOut:r.nOut], outSlab[r.nOut:]
		r.In[0] = InPort{Kind: KindLocal, DrainBudget: int32(cfg.InjectionBandwidth)}
		r.Out[0] = OutPort{Kind: KindLocal, Interface: true}
	}
	for _, l := range net.Links {
		l.srcRouter, l.dstRouter = net.Nodes[l.Src], net.Nodes[l.Dst]
		l.dstRouter.In[l.DstPort] = InPort{Link: l, Kind: l.Kind, DrainBudget: int32(l.Bandwidth), Interface: l.Kind != KindOnChip}
		depth := int32(cfg.BufPerVC(l.Kind))
		l.srcOut = &l.srcRouter.Out[l.SrcPort]
		*l.srcOut = OutPort{Link: l, Kind: l.Kind, Depth: depth, vcLimit: 1<<uint(nv) - 1, Interface: l.Kind != KindOnChip}
		for v := 0; v < nv; v++ {
			l.srcOut.Credits[v] = depth
		}
	}

	// VC states, rings and work arrays, router by router.
	var flitSlab []Flit // unused rest of the current ring chunk
	for ri, r := range net.Nodes {
		if len(flitSlab) == 0 {
			n := 0
			for _, q := range net.Nodes[ri:] {
				if n >= ringChunkFlits {
					break
				}
				for i := range q.In {
					n += nv * cfg.BufPerVC(q.In[i].Kind)
				}
			}
			flitSlab = make([]Flit, n)
		}
		slots := r.nIn * nv
		r.vcs, vcSlab = vcSlab[:slots:slots], vcSlab[slots:]
		r.slotVCs = nv
		for ip := range r.In {
			p := &r.In[ip]
			p.VCs = r.vcs[ip*nv : (ip+1)*nv : (ip+1)*nv]
			depth := cfg.BufPerVC(p.Kind)
			for v := range p.VCs {
				vc := &p.VCs[v]
				vc.ip = uint16(ip)
				vc.Buf.buf, flitSlab = flitSlab[:depth], flitSlab[depth:]
			}
			if p.DrainBudget > 0 {
				r.inBudgeted++
			}
		}
		words := (slots + 63) >> 6
		bm := wordSlab[: (4+r.nOut)*words : (4+r.nOut)*words]
		wordSlab = wordSlab[len(bm):]
		r.allocPend = bm[:words:words]
		r.saActive = bm[words : 2*words : 2*words]
		r.vaParked = bm[2*words : 3*words : 3*words]
		r.saReady = bm[3*words : 4*words : 4*words]
		r.parked = bm[4*words:]
		r.slotOut, slotSlab = slotSlab[:slots:slots], slotSlab[slots:]
		r.outBase, baseSlab = baseSlab[:r.nOut:r.nOut], baseSlab[r.nOut:]
		r.outDyn, dynSlab = dynSlab[:0:r.nOut], dynSlab[r.nOut:]
		for i := range r.Out {
			for v := range r.Out[i].waitSlot {
				r.Out[i].waitSlot[v] = -1
			}
		}
		if r.outBase[0] = r.ejBW; r.ejBW > 0 {
			r.outAvailBase = 1
		}
	}

	// Delay lines, then the outputs the links feed.
	nLine := 0
	for _, l := range net.Links {
		nLine += l.lineWords()
	}
	lineSlab := make([]uint16, nLine)
	for _, l := range net.Links {
		n := l.lineWords()
		l.line, lineSlab = lineSlab[:n:n], lineSlab[n:]
		l.bindOutput()
	}

	// Wake state.
	words := (len(net.Nodes) + 63) / 64 * wakeStride
	net.nodeWake, net.srcWake = make([]uint64, words), make([]uint64, words)
	for i := range net.sources {
		if len(net.sources[i].q) > 0 {
			net.srcWake[i>>6*wakeStride] |= 1 << (uint(i) & 63)
		}
	}
}

// Offer appends a packet to its source node's injection queue. Packets must
// be offered with nondecreasing CreatedAt per node, and must come from this
// network's NewPacket.
func (net *Network) Offer(p *Packet) {
	if !net.pkts.owns(p) {
		panic(fmt.Sprintf("network: packet %d offered was not made by this network's NewPacket", p.ID))
	}
	if n := NodeID(len(net.Nodes)); p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n {
		panic(fmt.Sprintf("network: packet %d offered from node %d to node %d, outside the %d-node network", p.ID, p.Src, p.Dst, n))
	}
	if p.Src == p.Dst {
		panic(fmt.Sprintf("network: packet %d offered with src == dst == %d", p.ID, p.Src))
	}
	s := &net.sources[p.Src]
	s.q = append(s.q, p)
	if net.srcWake != nil {
		net.srcWake[p.Src>>6*wakeStride] |= 1 << (uint(p.Src) & 63)
	}
}

// Step advances the network by one cycle. Work is found through the wake
// state, so per-cycle cost scales with in-flight traffic, not topology
// size; a skipped component is always one whose tick would have been a
// no-op, keeping results bit-identical to exhaustive scanning.
//
// Phase 1 is link arrivals and credit returns. Only links on a shard's
// wake lists can hold work, and processing order within a list is
// immaterial: each link writes disjoint router state (arrivals the Dst
// input buffers, credits the Src output counters) and the movement counter
// is a commutative sum. Phase 2 is the router pipelines then injection,
// each in ascending node order within a shard. The merge then folds the
// shard scratches in shard order — ascending node order overall, which is
// what Sink determinism depends on (see the package comment).
func (net *Network) Step() {
	p := net.shards
	net.moved = 0
	if p.ws == nil { // one shard, no workers: the phases are direct calls
		net.phase1(0)
		net.phase2(0)
	} else {
		p.ws.b.dispatch(p.phase1Fn)
		p.ws.b.dispatch(p.phase2Fn)
	}
	for w := range p.sh {
		net.mergeScratch(&p.sh[w].scratch)
	}
	net.loadMoved += net.moved
	if net.loadSteps++; net.loadSteps == loadWindow {
		net.reshard()
	}
	net.watchdog()
	net.steps++
	net.Now++
}

// linkArrivals advances one link's forward direction by a cycle. Adapter
// links deliver per flit — their Tick interleaves protocol work with
// delivery, and their delivery function (Link.deliver) counts what it
// delivered on the link so the wake bit and the movement count are settled
// once per link here. Every other link is plain and publishes the stage
// that comes due (commitDirect). moved is the owning shard's movement
// accumulator.
func (net *Network) linkArrivals(l *Link, moved *uint64) {
	if l.Adapter != nil {
		l.Adapter.Tick(net.Now, l.deliver)
		if n := l.delivered; n > 0 {
			l.delivered = 0
			net.wakeNode(l.Dst)
			*moved += uint64(n)
		}
		return
	}
	net.commitDirect(l, moved)
}

// wakeStride puts each nodeWake/srcWake word alone on a 64-byte line, so no
// line holds words of two shards wherever the cuts fall (DESIGN.md "Sharding").
const wakeStride = 8

// wakeNode marks a router as having buffered flits to process. Only the
// shard owning the router's wake word calls it.
func (net *Network) wakeNode(id NodeID) {
	net.nodeWake[id>>6*wakeStride] |= 1 << (uint(id) & 63)
}

// commitDirect publishes the flits a plain link accepted Delay cycles ago:
// they already sit in the destination rings (written at acceptance, see
// Link), so arrival is O(runs) — bump each ring's published length, mark
// newly pending slots and account the batch, with no flit copies. Runs on
// the destination router's shard in the link phase, after the barrier that
// quiesced the staging producer, which is what makes reading the ring's
// occupancy legal here: the credit-protocol check (a run must fit beside
// the flits still buffered) is made at this moment and nowhere earlier.
func (net *Network) commitDirect(l *Link, moved *uint64) {
	due := l.dueStage()
	if len(due) == 0 {
		return
	}
	r := l.dstRouter
	total := 0
	for _, run := range due {
		v, n := runVC(run), runLen(run)
		slot := l.DstPort*r.slotVCs + int(v)
		vc := &r.vcs[slot]
		buffered := vc.Buf.Len()
		if buffered+n > vc.Buf.Cap() {
			panic(fmt.Sprintf("network: input buffer overflow at node %d port %d vc %d (credit protocol violated)", r.ID, l.DstPort, v))
		}
		vc.Buf.publish(n)
		if !vc.Active {
			if buffered == 0 {
				r.cacheHead(vc, vc.Buf.frontRef())
			}
			r.markPend(slot)
		} else {
			r.saReady[slot>>6] |= 1 << (uint(slot) & 63)
		}
		total += n
	}
	l.inFlight -= int32(total)
	r.buffered += total
	net.wakeNode(l.Dst)
	*moved += uint64(total)
}

// mergeScratch folds one shard's accumulators into the network counters
// and retires the packets whose tail flits were ejected this cycle.
func (net *Network) mergeScratch(sc *workerScratch) {
	net.moved += sc.moved
	net.flitsIn += sc.flitsIn
	net.flitsOut += sc.flitsOut
	net.pktsIn += sc.pktsIn
	net.pktsOut += sc.pktsOut
	net.VAFailures += sc.vaFailures
	for k := range sc.grantsByKind {
		net.GrantsByKind[k] += sc.grantsByKind[k]
	}
	if pkt := sc.livelocked; pkt != nil && net.DeadlockAt < 0 {
		net.DeadlockAt = net.Now
		net.livelock = fmt.Sprintf("packet %d (%d -> %d, created at cycle %d) took %d hops without arriving", pkt.ID, pkt.Src, pkt.Dst, pkt.CreatedAt, pkt.Hops())
	}
	for _, pkt := range sc.finished {
		pkt.ArrivedAt = net.Now
		pkt.settleEnergy(&net.Cfg)
		if net.Sink != nil {
			net.Sink(pkt)
		}
		if net.OnDeliver != nil {
			net.OnDeliver(pkt)
		}
		net.pkts.free = append(net.pkts.free, pkt.ref)
	}
	// Fold links woken by this shard's routers into the wake lists. A
	// shard's routers may source links of any shard, so distribution runs
	// here, after the phases, not inside them. With one shard every link is
	// its own: two bulk appends instead of a per-link owner lookup, which
	// is what keeps a low-load one-shard step (synth_low) at the cost of a
	// plain list.
	if p := net.shards; len(p.sh) == 1 {
		p.sh[0].fwdWake = append(p.sh[0].fwdWake, sc.wokeFwd...)
		p.sh[0].crWake = append(p.sh[0].crWake, sc.wokeCr...)
	} else {
		for _, li := range sc.wokeFwd {
			d := &p.sh[p.linkDstShard[li]]
			d.fwdWake = append(d.fwdWake, li)
		}
		for _, li := range sc.wokeCr {
			s := &p.sh[p.linkSrcShard[li]]
			s.crWake = append(s.crWake, li)
		}
	}
	// Zero in place and re-attach the emptied lists and the tick buffers: a
	// composite literal here is built on the stack and copied over, at a
	// third of an idle step.
	finished, wokeFwd, wokeCr := sc.finished[:0], sc.wokeFwd[:0], sc.wokeCr[:0]
	routed, cands, sa := sc.routed, sc.cands, sc.sa
	*sc = workerScratch{}
	sc.finished, sc.wokeFwd, sc.wokeCr = finished, wokeFwd, wokeCr
	sc.routed, sc.cands, sc.sa = routed, cands, sa
}

// watchdog advances the deadlock detector after a cycle's movement count
// is final.
func (net *Network) watchdog() {
	if net.Cfg.DeadlockThreshold <= 0 {
		return
	}
	if net.flitsIn > net.flitsOut && net.moved == 0 {
		net.idleStreak++
		if net.idleStreak >= net.Cfg.DeadlockThreshold && net.DeadlockAt < 0 {
			net.DeadlockAt = net.Now
		}
	} else {
		net.idleStreak = 0
	}
}

// watchdogErr is the error a run ends with once DeadlockAt is set. A
// deadlock names its first stalled VC and DeadlockReport's totals, so the
// error says what is stuck; both read only router state, which is the same
// at every shard count.
func (net *Network) watchdogErr() error {
	if net.livelock != "" {
		return fmt.Errorf("network: routing livelock at cycle %d: %s", net.DeadlockAt, net.livelock)
	}
	return fmt.Errorf("network: deadlock detected at cycle %d (%d flits stuck): %s", net.DeadlockAt, net.flitsIn-net.flitsOut, net.StallSummary())
}

// injectNode moves flits from one node's source queue into its
// injection-port buffers, accumulating counters into sc.
func (net *Network) injectNode(n int, sc *workerScratch) {
	{
		s := &net.sources[n]
		if s.cur == nil && s.head == len(s.q) {
			return
		}
		r := net.Nodes[n]
		in := &r.In[r.InjectPort]
		budget := net.Cfg.InjectionBandwidth
		for budget > 0 {
			if s.cur == nil {
				if s.head == len(s.q) {
					break
				}
				p := s.q[s.head]
				if p.CreatedAt > net.Now {
					break
				}
				// Pick the injection VC with the most free space, with the
				// same class affinity as VC allocation (latency-sensitive
				// high, throughput low) so control packets do not queue
				// behind bulk transfers at the source. Throughput packets
				// stop at the first eligible VC — nothing later in the scan
				// can displace the lowest one.
				best, bestFree := -1, 0
				for v := range in.VCs {
					f := in.VCs[v].Buf.Free()
					if f == 0 {
						continue
					}
					if best < 0 {
						best, bestFree = v, f
						if p.Class == ClassThroughput {
							break
						}
						continue
					}
					switch {
					case p.Class == ClassLatencySensitive:
						best, bestFree = v, f // highest eligible VC
					case f > bestFree:
						best, bestFree = v, f
					}
				}
				if best < 0 {
					break
				}
				s.q[s.head] = nil
				s.head++
				if s.head == len(s.q) {
					s.q, s.head = s.q[:0], 0
				}
				s.cur, s.curSeq, s.curVC = p, 0, VCID(best)
				p.InjectedAt = net.Now
				sc.pktsIn++
			}
			vc := &in.VCs[s.curVC]
			if budget > 0 && s.curSeq < int32(s.cur.Length) && vc.Buf.Free() > 0 {
				net.wakeNode(r.ID)
				slot := r.InjectPort*r.slotVCs + int(s.curVC)
				if !vc.Active {
					// The VC will hold a head flit awaiting RC+VA next
					// cycle (if it already does, re-marking is a no-op).
					// When this packet's own head is about to become the
					// front, denormalize it; an inactive non-empty buffer
					// already fronts an earlier head, cached on arrival.
					if s.curSeq == 0 && vc.Buf.Empty() {
						vc.cacheHeadPkt(s.cur)
					}
					r.markPend(slot)
				} else {
					r.saReady[slot>>6] |= 1 << (uint(slot) & 63)
				}
			}
			for budget > 0 && s.curSeq < int32(s.cur.Length) && vc.Buf.Free() > 0 {
				vc.Buf.Push(Flit{P: s.cur.ref, Seq: uint16(s.curSeq), VC: s.curVC, Class: s.cur.Class})
				r.buffered++
				s.curSeq++
				budget--
				sc.flitsIn++
				sc.moved++
			}
			if s.curSeq == int32(s.cur.Length) {
				s.cur = nil
				continue
			}
			break // buffer full or budget exhausted
		}
	}
}

// Run drives the network for the given number of cycles, invoking drive
// (which may be nil) at the start of every cycle so traffic generators can
// Offer packets. It returns a deadlock error if the watchdog fires.
func (net *Network) Run(cycles int64, drive func(now int64)) error {
	return net.RunWith(cycles, drive, nil)
}

// RunWith is Run with a fast-forward contract: next, when non-nil, reports
// the earliest cycle ≥ its argument at which drive may Offer a packet (or a
// negative value for "never again"). When the network is quiescent the
// engine skips Now directly to the next cycle at which anything can happen
// instead of stepping idle cycles. A nil next with a non-nil drive disables
// fast-forwarding entirely (the driver is assumed to need every cycle, as
// Bernoulli generators do); a nil drive lets the engine skip to the next
// source-queue injection time on its own. Results are bit-identical to
// stepping every cycle: a skipped cycle is one in which Step would only
// have advanced Now (no wake-list work, no eligible source, no driver
// event, and the watchdog's idle streak already pinned to zero by
// flitsIn == flitsOut).
func (net *Network) RunWith(cycles int64, drive func(now int64), next func(now int64) int64) error {
	end := net.Now + cycles
	for net.Now < end {
		if drive != nil {
			drive(net.Now)
		}
		net.Step()
		if net.DeadlockAt >= 0 {
			return net.watchdogErr()
		}
		if (drive != nil && next == nil) || !net.idle() {
			continue
		}
		target := end
		if t := net.nextSourceEvent(); t >= 0 && t < target {
			target = t
		}
		if next != nil {
			if t := next(net.Now); t >= 0 && t < target {
				target = t
			}
		}
		if target > net.Now {
			net.Now = target
		}
	}
	return nil
}

// Drain runs without new traffic until every in-flight and queued packet is
// delivered, up to cfg.DrainCycles additional cycles. It reports whether
// the network fully drained. An idle network with only future-timestamped
// packets queued skips straight to the earliest of them.
func (net *Network) Drain() (bool, error) {
	deadline := net.Now + net.Cfg.DrainCycles
	for net.Now < deadline {
		if net.Quiescent() {
			return true, nil
		}
		if net.idle() {
			if t := net.nextSourceEvent(); t > net.Now {
				net.Now = min(t, deadline)
				continue
			}
		}
		net.Step()
		if net.DeadlockAt >= 0 {
			return false, fmt.Errorf("%w while draining", net.watchdogErr())
		}
	}
	return net.Quiescent(), nil
}

// idle reports whether stepping the network would be a strict no-op: every
// flit delivered and no link pipeline (forward or credit) still draining.
// Credits in flight block idleness — skipping would deliver them late and
// change downstream allocation timing.
func (net *Network) idle() bool {
	if net.flitsIn != net.flitsOut {
		return false
	}
	sh := net.shards.sh
	for w := range sh {
		if len(sh[w].fwdWake) > 0 || len(sh[w].crWake) > 0 {
			return false
		}
	}
	return true
}

// nextSourceEvent returns the earliest cycle at which a source queue can
// inject: Now itself if any queue holds an eligible packet, the minimum
// future CreatedAt otherwise, or -1 if every queue is empty.
func (net *Network) nextSourceEvent() int64 {
	next := int64(-1)
	for wi := 0; wi < len(net.srcWake); wi += wakeStride {
		for w := net.srcWake[wi]; w != 0; {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			s := &net.sources[wi/wakeStride<<6+b]
			if s.cur != nil {
				return net.Now
			}
			if s.head < len(s.q) {
				t := s.q[s.head].CreatedAt
				if t <= net.Now {
					return net.Now
				}
				if next < 0 || t < next {
					next = t
				}
			}
		}
	}
	return next
}

// Quiescent reports whether no packets are queued or in flight.
func (net *Network) Quiescent() bool {
	if net.flitsIn > net.flitsOut {
		return false
	}
	for i := range net.sources {
		s := &net.sources[i]
		if s.cur != nil || s.head < len(s.q) {
			return false
		}
	}
	return true
}

// InFlightFlits returns the number of flits inside the network.
func (net *Network) InFlightFlits() int64 { return net.flitsIn - net.flitsOut }

// Steps returns how many cycles Step has advanced; Now minus it is the
// cycles a run fast-forwarded.
func (net *Network) Steps() int64 { return net.steps }

// PacketsInjected returns the number of packets whose injection started.
func (net *Network) PacketsInjected() int64 { return net.pktsIn }

// PacketsDelivered returns the number of packets fully ejected.
func (net *Network) PacketsDelivered() int64 { return net.pktsOut }

// QueuedPackets returns the number of packets waiting in source queues.
func (net *Network) QueuedPackets() int {
	total := 0
	for i := range net.sources {
		s := &net.sources[i]
		total += len(s.q) - s.head
		if s.cur != nil {
			total++
		}
	}
	return total
}

// CheckCredits verifies, for every link, that credits +
// credits-in-return + flits-in-flight + flits-buffered equals the
// downstream buffer depth for every VC. An adapter link's flits in flight
// are the undelivered ones its Adapter reports (Undelivered); a link whose
// Adapter does not report them is skipped. Tests call it; it is
// O(network).
func (net *Network) CheckCredits() error {
	for _, l := range net.Links {
		src := &net.Nodes[l.Src].Out[l.SrcPort]
		dstIn := &net.Nodes[l.Dst].In[l.DstPort]
		var held []int
		if l.Adapter != nil {
			u, ok := l.Adapter.(Undelivered)
			if !ok {
				continue
			}
			held = make([]int, len(dstIn.VCs))
			u.UndeliveredVCs(func(vc VCID) { held[vc]++ })
		}
		for v := range dstIn.VCs {
			var inPipe int
			if held != nil {
				inPipe = held[v]
			} else {
				// A plain link's in-flight flits sit staged in the
				// destination ring (excluded from Buf.Len); the delay
				// line holds their run lengths, each in exactly one stage.
				inPipe = l.lineCount(0, VCID(v))
			}
			returning := l.lineCount(l.Delay, VCID(v))
			credits := int(src.Credits[v])
			got := credits + returning + inPipe + dstIn.VCs[v].Buf.Len()
			want := dstIn.VCs[v].Buf.Cap()
			if got != want {
				return fmt.Errorf("network: credit imbalance on link %d (%v %d->%d) vc %d: credits=%d returning=%d inPipe=%d buffered=%d, sum %d != depth %d",
					l.ID, l.Kind, l.Src, l.Dst, v, credits, returning, inPipe, dstIn.VCs[v].Buf.Len(), got, want)
			}
		}
	}
	return nil
}

// lineCount sums the runs for vc in the Delay stages of a delay line
// starting at stage first (0: forward, Delay: credit).
func (l *Link) lineCount(first int, vc VCID) int {
	total := 0
	for i := first; i < first+l.Delay; i++ {
		for _, run := range l.stage(i) {
			if runVC(run) == vc {
				total += runLen(run)
			}
		}
	}
	return total
}
