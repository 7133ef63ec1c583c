package network

import (
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"
)

// Sharded stepping — the one cycle engine. The synchronous two-phase cycle
// model is embarrassingly parallel *within* each phase once writes are
// grouped by owner:
//
//   - link delivery writes only the destination router (links sharded by Dst);
//   - credit completion writes only the source router (links sharded by Src);
//   - a router tick writes its own state, the links it sources (Accept),
//     the links it sinks (ReturnCredit) and the packets at its VC heads —
//     all owned by exactly one router;
//   - injection writes only the node's own source queue and buffers.
//
// A finalized network is always cut into shards, contiguous node ranges
// that each own their wake lists and an accumulation scratch. Finalize
// creates one shard covering every node; SetWorkers(n) re-cuts into n.
// Step runs phase 1 on every shard, then phase 2 on every shard, then
// merges the scratches in shard order. With one shard each phase is a
// direct call: no goroutine, no finalizer, no shared wake word. With n
// shards the phases run on n-1 persistent worker goroutines (the caller is
// shard 0) parked on per-worker command channels; the two phase functions
// are bound once, so dispatching a step performs no allocation.
//
// The partitioner balances node weights and prefers to cut along chiplet
// boundaries (Network.SetShardCuts, fed by topology.Topo.ShardCuts):
// cross-shard traffic then rides the modeled D2D interface links instead
// of intra-chiplet mesh hops, and the wake words interior to a chiplet row
// keep a single owner. A nodeWake/srcWake bitmap word crossed by a shard
// boundary is marked in sharedWords and accessed with atomic Or/And/Load;
// all other words keep the plain single-owner fast path. Shard sizes follow
// live load — at every quiescence boundary (RunWith/Drain fast-forward
// points) the partitioner re-weights nodes by the source-queue wake
// population, so an idle chiplet doesn't pin a worker while another drowns.
//
// Links woken by a router tick (Accept/ReturnCredit on a possibly
// foreign-shard link) are recorded in the shard's private scratch and
// folded into the owning shard's wake list at the merge. Shared aggregates
// (movement counters, grant/VA statistics, finished packets) are
// accumulated per shard and merged in shard order, and the Sink/OnDeliver
// callbacks run on the goroutine that called Step, so results are
// bit-identical for every shard count and placement — see
// TestParallelMatchesSequential and experiments.TestParallelOracle, whose
// one-shard run is pinned to golden constants.
type shardState struct {
	// bounds[w]..bounds[w+1] is shard w's node range (arbitrary positions;
	// see sharedWords).
	bounds    []int
	newBounds []int   // partition scratch
	prefix    []int64 // partition scratch: prefix[i] = weight of nodes [0,i)
	weights   []int32 // rebalance scratch

	nodeShard    []int32 // owning shard of each node
	linkDstShard []int32 // owning shard of each link's forward wake entry
	linkSrcShard []int32 // owning shard of each link's credit wake entry

	// sharedWords is a bitmap over nodeWake/srcWake *word* indices: a set
	// bit marks a word crossed by a shard boundary, which must be accessed
	// atomically. A one-shard network has no shared word.
	sharedWords []uint64

	sh  []shard // one per shard: len(sh) is the shard count
	tmp []int32 // refit scratch for re-homing wake entries

	// phase1Fn/phase2Fn are bound once; dispatch sends these prebuilt
	// values so a step allocates nothing. One shard has no workers (ws is
	// nil) and Step calls the phases directly.
	phase1Fn func(int)
	phase2Fn func(int)
	ws       *workerSet
}

// workerSet owns the worker goroutines' channels and nothing else. It is
// the one object of the stepper that carries a finalizer, so nothing
// reachable from it may lead back to the shardState or the Network: both
// are self-cyclic through their closures (deliverFns and the phase
// functions capture the Network), and the collector neither finalizes nor
// frees a cycle that contains a finalizer. The channels hold a phase
// function only while a dispatch is in flight.
type workerSet struct {
	cmd []chan func(int)
	ack []chan struct{}
}

// shard is what one shard owns besides its node range. The wake lists are
// rewritten by the shard's own phase 1 and appended to by the merge; the
// scratch's trailing pad keeps neighbouring shards off each other's lines.
type shard struct {
	fwdWake []int32 // links into this shard with non-empty forward pipelines
	crWake  []int32 // links out of this shard with credits in flight
	scratch workerScratch
}

type workerScratch struct {
	moved        uint64
	flitsIn      int64
	flitsOut     int64
	pktsIn       int64
	pktsOut      int64
	grantsByKind [8]uint64
	vaFailures   uint64
	finished     []*Packet
	livelocked   *Packet // reached maxPacketHops this cycle (Router.headHop)
	wokeFwd      []int32 // links whose forward pipeline went busy this tick
	wokeCr       []int32 // links whose credit pipeline went busy this tick

	_pad [64]byte // avoid false sharing between workers
}

// srcWakeWeight is the extra partition weight of a node whose source queue
// holds work: loaded regions get proportionally smaller shards.
const srcWakeWeight = 8

// SetShardCuts declares preferred shard boundary positions, normally the
// chiplet-row starts from topology.Topo.ShardCuts. The partitioner snaps a
// balanced cut to the nearest preferred position within its imbalance
// slack, keeping cross-shard traffic on the modeled D2D interface links.
// Out-of-range positions are dropped. May be called before or after
// SetWorkers; a finalized network is re-cut immediately.
func (net *Network) SetShardCuts(cuts []int) {
	net.shardCuts = net.shardCuts[:0]
	total := len(net.Nodes)
	for _, c := range cuts {
		if c > 0 && c < total {
			net.shardCuts = append(net.shardCuts, c)
		}
	}
	sort.Ints(net.shardCuts)
	if p := net.shards; p != nil {
		if p.partition(net, nil) {
			p.refit(net)
		}
	}
}

// tracerNeedsOneShard is the panic raised when a Tracer meets more than one
// shard, whichever of the two was set first.
const tracerNeedsOneShard = "network: a Tracer needs one shard (events from concurrent shards would race); detach it or SetWorkers(0) first"

// SetWorkers re-cuts a finalized network into n shards stepped by the
// caller plus n-1 worker goroutines (1 or 0: one shard, no goroutine).
// Results are identical for every n; speedups appear on saturated systems
// from a few hundred nodes up, provided the process has the CPUs — n is
// taken at its word, so asking for more shards than CPUs only adds
// hand-offs. Asking for the current count is a no-op. SetWorkers(0) stops
// the previous workers before it returns; a network dropped while still
// sharded is released by the workerSet finalizer at a later collection.
func (net *Network) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > 1 && net.Tracer != nil {
		panic(tracerNeedsOneShard)
	}
	if p := net.shards; p != nil && len(p.sh) == n {
		return
	}
	net.setShards(n)
}

// setShards builds the shard state for n shards from scratch — ownership
// maps, wake lists, workers — replacing any previous one. Simulation state
// is untouched: rebuildWake re-derives every wake list from the components.
func (net *Network) setShards(n int) {
	if net.shards != nil {
		net.shards.ws.stop()
	}
	total := len(net.Nodes)
	words := (total + 63) / 64
	p := &shardState{
		bounds:       make([]int, n+1),
		newBounds:    make([]int, n+1),
		nodeShard:    make([]int32, total),
		linkDstShard: make([]int32, len(net.Links)),
		linkSrcShard: make([]int32, len(net.Links)),
		sharedWords:  make([]uint64, (words+63)/64),
		sh:           make([]shard, n),
		phase1Fn:     net.phase1,
		phase2Fn:     net.phase2,
	}
	p.partition(net, nil)
	p.refit(net)
	if n > 1 {
		p.ws = startWorkers(n)
	}
	net.shards = p
	net.rebuildWake()
}

// partition recomputes shard bounds balancing per-node weights (nil means
// uniform), snapping each cut to a preferred chiplet boundary — or
// failing that a 64-aligned position — when one lies within the balance
// slack. Reports whether the bounds changed; the caller must refit then.
func (p *shardState) partition(net *Network, weights []int32) bool {
	total := len(net.Nodes)
	n := len(p.sh)
	if p.prefix == nil {
		p.prefix = make([]int64, total+1)
	}
	var sum int64
	for i := 0; i < total; i++ {
		p.prefix[i] = sum
		if weights != nil {
			sum += int64(weights[i])
		} else {
			sum++
		}
	}
	p.prefix[total] = sum
	nb := p.newBounds
	nb[0], nb[n] = 0, total
	// A cut may drift from its balanced position by a quarter of an ideal
	// shard before we stop snapping to preferred boundaries.
	slack := sum/(4*int64(n)) + 1
	for w := 1; w < n; w++ {
		b := p.cutNear(net, sum*int64(w)/int64(n), slack)
		if b < nb[w-1] {
			b = nb[w-1]
		}
		if b > total {
			b = total
		}
		nb[w] = b
	}
	changed := false
	for i := 0; i <= n; i++ {
		if nb[i] != p.bounds[i] {
			changed = true
			break
		}
	}
	if changed {
		copy(p.bounds, nb)
	}
	return changed
}

// cutNear picks the cut position for target prefix weight t: the nearest
// preferred cut within slack, else the nearest 64-aligned position within
// slack (keeping the wake word single-owner), else the exact balanced
// position.
func (p *shardState) cutNear(net *Network, t, slack int64) int {
	total := len(net.Nodes)
	pos := sort.Search(total+1, func(i int) bool { return p.prefix[i] >= t })
	best, bestD := -1, slack+1
	try := func(c int) {
		if c < 0 || c > total {
			return
		}
		if d := abs64(p.prefix[c] - t); d < bestD {
			best, bestD = c, d
		}
	}
	if cuts := net.shardCuts; len(cuts) > 0 {
		ci := sort.SearchInts(cuts, pos)
		if ci < len(cuts) {
			try(cuts[ci])
		}
		if ci > 0 {
			try(cuts[ci-1])
		}
		if best >= 0 {
			return best
		}
	}
	try(pos &^ 63)
	try((pos + 63) &^ 63)
	if best >= 0 {
		return best
	}
	return pos
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// refit rebuilds everything derived from bounds: node→shard and
// link→shard maps, the shared-word bitmap (and each link's copy of its
// destination's bit), and the homes of any queued wake-list entries. Wake membership itself is unchanged — repartitioning
// never touches simulation state, only ownership.
func (p *shardState) refit(net *Network) {
	total := len(net.Nodes)
	n := len(p.sh)
	for i, w := 0, 0; i < total; i++ {
		for w+1 < n && i >= p.bounds[w+1] {
			w++
		}
		p.nodeShard[i] = int32(w)
	}
	for i := range p.sharedWords {
		p.sharedWords[i] = 0
	}
	// A boundary interior to a 64-node word makes that word visible to
	// two shards.
	for w := 1; w < n; w++ {
		if b := p.bounds[w]; b&63 != 0 && b < total {
			wi := uint(b) >> 6
			p.sharedWords[wi>>6] |= 1 << (wi & 63)
		}
	}
	for i, l := range net.Links {
		p.linkDstShard[i] = p.nodeShard[l.Dst]
		p.linkSrcShard[i] = p.nodeShard[l.Src]
		l.dstShared = p.isShared(uint(l.Dst) >> 6)
	}
	// Re-home queued wake entries (only non-empty when cuts move while
	// link pipelines hold work, e.g. SetShardCuts mid-run).
	p.tmp = p.tmp[:0]
	for w := range p.sh {
		p.tmp = append(p.tmp, p.sh[w].fwdWake...)
		p.sh[w].fwdWake = p.sh[w].fwdWake[:0]
	}
	for _, li := range p.tmp {
		d := &p.sh[p.linkDstShard[li]]
		d.fwdWake = append(d.fwdWake, li)
	}
	p.tmp = p.tmp[:0]
	for w := range p.sh {
		p.tmp = append(p.tmp, p.sh[w].crWake...)
		p.sh[w].crWake = p.sh[w].crWake[:0]
	}
	for _, li := range p.tmp {
		s := &p.sh[p.linkSrcShard[li]]
		s.crWake = append(s.crWake, li)
	}
}

// isShared reports whether wake word wi is crossed by a shard boundary
// and therefore needs atomic access.
func (p *shardState) isShared(wi uint) bool {
	return p.sharedWords[wi>>6]>>(wi&63)&1 != 0
}

// maybeRebalance re-weights the partition from the live wake population.
// Called only at quiescence boundaries (net.idle()): no flits are
// buffered or in flight, so nodeWake is empty and the source-queue wake
// bitmap is the only live load signal. One shard has nothing to balance,
// and trace replays and collectives reach a boundary at every fast-forward
// jump, so the O(nodes) scan is skipped there.
func (p *shardState) maybeRebalance(net *Network) {
	if len(p.sh) == 1 {
		return
	}
	total := len(net.Nodes)
	if p.weights == nil {
		p.weights = make([]int32, total)
	}
	any := false
	for i := 0; i < total; i++ {
		w := int32(1)
		if net.srcWake[uint(i)>>6]>>(uint(i)&63)&1 != 0 {
			w += srcWakeWeight
			any = true
		}
		p.weights[i] = w
	}
	ws := p.weights
	if !any {
		ws = nil
	}
	if p.partition(net, ws) {
		p.refit(net)
	}
}

// startWorkers launches n-1 persistent worker goroutines (Step's caller is
// shard 0), parked on their command channels between steps.
func startWorkers(n int) *workerSet {
	ws := &workerSet{cmd: make([]chan func(int), n), ack: make([]chan struct{}, n)}
	for w := 1; w < n; w++ {
		cmd := make(chan func(int), 1)
		ack := make(chan struct{}, 1)
		ws.cmd[w], ws.ack[w] = cmd, ack
		go parallelWorker(w, cmd, ack)
	}
	runtime.SetFinalizer(ws, (*workerSet).stop)
	return ws
}

// parallelWorker is a top-level function holding nothing but its channels
// while parked: the range loop clears its receive slot and fn is dead after
// the call, so a parked worker keeps neither the state nor the Network
// alive. Closing ack on the way out lets stop wait for the exit.
func parallelWorker(w int, cmd <-chan func(int), ack chan<- struct{}) {
	defer close(ack)
	for fn := range cmd {
		fn(w)
		ack <- struct{}{}
	}
}

// dispatch runs fn(shard) on every shard and waits. The channel
// send/receive pairs provide the happens-before edges that publish one
// phase's writes to every shard before the next phase reads them.
func (ws *workerSet) dispatch(fn func(int)) {
	for w := 1; w < len(ws.cmd); w++ {
		ws.cmd[w] <- fn
	}
	fn(0)
	for w := 1; w < len(ws.ack); w++ {
		<-ws.ack[w]
	}
}

// stop releases the worker goroutines and returns once each has left its
// loop. setShards calls it when re-cutting (ws is nil at one shard); as the
// workerSet's finalizer it is the backstop for a network dropped without
// SetWorkers(0), where the workers are parked and exit at once.
func (ws *workerSet) stop() {
	if ws == nil {
		return
	}
	runtime.SetFinalizer(ws, nil)
	for w := 1; w < len(ws.cmd); w++ {
		close(ws.cmd[w])
	}
	for w := 1; w < len(ws.ack); w++ {
		<-ws.ack[w]
	}
}

// phase1 runs one shard's link deliveries (sharded by destination
// router — they write that router's buffers and wake bits) fused with
// credit completions (sharded by source router — they write that router's
// credit counters). The two halves touch disjoint Link fields (forward
// delay line and fwdQueued vs credit pipe and crQueued), so one barrier
// covers both.
func (net *Network) phase1(w int) {
	sh := &net.shards.sh[w]
	if lw := sh.fwdWake; len(lw) > 0 {
		sc := &sh.scratch
		keep := lw[:0]
		for _, li := range lw {
			l := net.Links[li]
			net.linkArrivals(l, &sc.moved)
			if l.fwdBusy() {
				keep = append(keep, li)
			} else {
				l.fwdQueued = false
			}
		}
		sh.fwdWake = keep
	}
	if lw := sh.crWake; len(lw) > 0 {
		keep := lw[:0]
		for _, li := range lw {
			l := net.Links[li]
			l.creditArrivals()
			if l.creditsInFlight > 0 {
				keep = append(keep, li)
			} else {
				l.crQueued = false
			}
		}
		sh.crWake = keep
	}
}

// phase2 runs one shard's router pipelines fused with injection — both
// only touch the shard's own routers and wake bits, and injected flits
// are not observable elsewhere until the next cycle's link phase. The
// router work bitmaps (allocPend/saActive/saReady) and the parking state
// (vaParked, OutPort.parked/waitSlot) follow the same ownership
// discipline: deliveries mark pending slots on the destination shard in
// phase 1, credit completions unpark at the source router in phase 1, and
// ticks/injection touch only the shard's own routers here. Wake words
// crossed by a shard boundary are the one exception, handled with atomic
// Or/And — other shards only ever touch *their* bits of such a word.
func (net *Network) phase2(w int) {
	p := net.shards
	lo, hi := p.bounds[w], p.bounds[w+1]
	if lo >= hi {
		return
	}
	sc := &p.sh[w].scratch
	// Step refuses a Tracer above one shard, so a non-nil one is only ever
	// called from the stepping goroutine.
	ctx := tickContext{net: net, scratch: sc, tracer: net.Tracer, reference: net.refTick}
	net.tickNodeRange(&ctx, lo, hi)
	net.injectNodeRange(sc, lo, hi)
}

// tickNodeRange runs the router pipelines of the nodes in [lo, hi) whose
// wake bit is set, in ascending node order (Sink determinism depends on it
// — see the package comment), clearing the bit of any router that drained
// completely. Ranges are node positions, not word positions: boundary
// words are masked, and accessed atomically when shared.
func (net *Network) tickNodeRange(ctx *tickContext, lo, hi int) {
	p := net.shards
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		shared := p.isShared(uint(wi))
		var w uint64
		if shared {
			w = atomic.LoadUint64(&net.nodeWake[wi])
		} else {
			w = net.nodeWake[wi]
		}
		w &= shardWordMask(wi, lo, hi)
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			r := net.Nodes[wi<<6+b]
			r.tickCtx(ctx)
			if r.buffered == 0 {
				if shared {
					atomic.AndUint64(&net.nodeWake[wi], ^(uint64(1) << uint(b)))
				} else {
					net.nodeWake[wi] &^= 1 << uint(b)
				}
			}
		}
	}
}

// injectNodeRange runs injection for the sources woken in nodes [lo, hi),
// in ascending node order, clearing the bit of any source whose queue
// emptied.
func (net *Network) injectNodeRange(sc *workerScratch, lo, hi int) {
	p := net.shards
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		shared := p.isShared(uint(wi))
		var w uint64
		if shared {
			w = atomic.LoadUint64(&net.srcWake[wi])
		} else {
			w = net.srcWake[wi]
		}
		w &= shardWordMask(wi, lo, hi)
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			ni := wi<<6 + b
			net.injectNode(ni, sc, shared)
			s := &net.sources[ni]
			if s.cur == nil && s.head == len(s.q) {
				if shared {
					atomic.AndUint64(&net.srcWake[wi], ^(uint64(1) << uint(b)))
				} else {
					net.srcWake[wi] &^= 1 << uint(b)
				}
			}
		}
	}
}

// shardWordMask masks word wi down to the bits whose node indices lie in
// [lo, hi).
func shardWordMask(wi, lo, hi int) uint64 {
	m := ^uint64(0)
	base := wi << 6
	if d := lo - base; d > 0 {
		m &= ^uint64(0) << uint(d)
	}
	if d := hi - base; d < 64 {
		m &= uint64(1)<<uint(d) - 1
	}
	return m
}
