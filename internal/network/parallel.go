package network

import (
	"math/bits"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
)

// Parallel stepping. The synchronous two-phase cycle model makes the
// engine embarrassingly parallel *within* each phase once writes are
// grouped by owner:
//
//   - link delivery writes only the destination router (links sharded by Dst);
//   - credit completion writes only the source router (links sharded by Src);
//   - a router tick writes its own state, the links it sources (Accept),
//     the links it sinks (ReturnCredit) and the packets at its VC heads —
//     all owned by exactly one router;
//   - injection writes only the node's own source queue and buffers.
//
// Shards are contiguous node ranges chosen by a weight-balancing
// partitioner that prefers to cut along chiplet boundaries
// (Network.SetShardCuts, fed by topology.Topo.ShardCuts): cross-shard
// traffic then rides the modeled D2D interface links instead of
// intra-chiplet mesh hops, and the wake words interior to a chiplet row
// keep a single owner. Boundaries are no longer forced to multiples of 64:
// a nodeWake/srcWake bitmap word crossed by a shard boundary is marked in
// sharedWords and accessed with atomic Or/And/Load; all other words keep
// the plain single-owner fast path. Shard sizes follow live load — at
// every quiescence boundary (RunWith/Drain fast-forward points) the
// partitioner re-weights nodes by the source-queue wake population, so an
// idle chiplet doesn't pin a worker while another drowns.
//
// Work is executed by persistent worker goroutines parked on per-worker
// command channels; the two phase closures are bound once in SetWorkers,
// so dispatching a step performs no allocation. When the process has only
// one usable CPU (GOMAXPROCS or NumCPU of 1) the shards run inline on the
// coordinating goroutine instead — same shard structure and results,
// none of the cross-goroutine overhead.
//
// Links woken by a router tick (Accept/ReturnCredit on a possibly
// foreign-shard link) are recorded in the worker's private scratch and
// folded into the owning shard's wake list by the coordinator at the merge
// barrier. Shared aggregates (movement counters, grant/VA statistics,
// finished packets) are accumulated per worker and merged at the barrier,
// and the Sink/Tracer callbacks run on the coordinating goroutine, so
// results are bit-identical to sequential stepping regardless of worker
// count or shard placement — see TestParallelMatchesSequential and
// experiments.TestParallelOracle.
type parallelState struct {
	workers int
	// single runs every shard inline on the coordinator when the process
	// has one usable CPU: identical shard semantics, zero dispatch cost.
	single bool

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
	// atomically. Empty in single mode.
	sharedWords []uint64

	fwdWake [][]int32 // per dst-shard links with non-empty forward pipelines
	crWake  [][]int32 // per src-shard links with credits in flight
	tmp     []int32   // refit scratch for re-homing wake entries

	// deliverFns are the per-link delivery closures, the parallel twin of
	// Network.deliverFns. They resolve the owning shard's scratch through
	// linkDstShard at call time, so rebalancing never rebuilds closures.
	deliverFns []func(Flit)

	scratch []workerScratch

	// phase1Fn/phase2Fn are bound once; dispatch sends these prebuilt
	// values so a step allocates nothing.
	phase1Fn func(int)
	phase2Fn func(int)
	ws       *workerSet // nil in single mode
}

// workerSet owns the worker goroutines' channels and nothing else. It is
// the one object of the sharded stepper that carries a finalizer, so
// nothing reachable from it may lead back to the parallelState or the
// Network: both are self-cyclic through their closures (deliverFns and the
// phase functions capture them), and the collector neither finalizes nor
// frees a cycle that contains a finalizer. The channels hold a phase
// closure only while a dispatch is in flight.
type workerSet struct {
	cmd []chan func(int)
	ack []chan struct{}
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
// SetWorkers; an active sharding is re-cut immediately.
func (net *Network) SetShardCuts(cuts []int) {
	net.shardCuts = net.shardCuts[:0]
	total := len(net.Nodes)
	for _, c := range cuts {
		if c > 0 && c < total {
			net.shardCuts = append(net.shardCuts, c)
		}
	}
	sort.Ints(net.shardCuts)
	if p := net.par; p != nil {
		if p.partition(net, nil) {
			p.refit(net)
		}
	}
}

// SetWorkers enables parallel stepping across n goroutines (1 or 0
// restores sequential mode). Call after Finalize. Results are identical to
// sequential stepping; speedups appear on saturated systems from a few
// hundred nodes up, provided the process has the CPUs (on a single-CPU
// process the shards run inline and parallel mode merely matches
// sequential throughput). SetWorkers(0) stops the previous workers before
// it returns; a network dropped while still parallel is released by the
// workerSet finalizer at a later collection.
func (net *Network) SetWorkers(n int) {
	if net.par != nil {
		net.par.ws.stop()
		net.par = nil
	}
	if n <= 1 {
		net.rebuildWake()
		return
	}
	if net.Tracer != nil {
		panic("network: parallel stepping does not support a Tracer (events would race); detach it first")
	}
	total := len(net.Nodes)
	words := (total + 63) / 64
	p := &parallelState{workers: n, single: effectiveParallelism() < 2 && !forceWorkerDispatch}
	p.bounds = make([]int, n+1)
	p.newBounds = make([]int, n+1)
	p.nodeShard = make([]int32, total)
	p.linkDstShard = make([]int32, len(net.Links))
	p.linkSrcShard = make([]int32, len(net.Links))
	p.sharedWords = make([]uint64, (words+63)/64)
	p.scratch = make([]workerScratch, n)
	p.fwdWake = make([][]int32, n)
	p.crWake = make([][]int32, n)
	p.partition(net, nil)
	p.refit(net)
	p.bindDeliverFns(net)
	p.phase1Fn = func(w int) { net.parPhase1(w) }
	p.phase2Fn = func(w int) { net.parPhase2(w) }
	if !p.single {
		p.ws = startWorkers(n)
	}
	net.par = p
	net.rebuildWake()
}

// forceWorkerDispatch makes SetWorkers use real worker goroutines even on
// a single-CPU process. Tests set it (and CI's race job exports
// HETEROIF_FORCE_PARALLEL=1) so the dispatch and shared-word paths run
// under the race detector regardless of the host's CPU count.
var forceWorkerDispatch = os.Getenv("HETEROIF_FORCE_PARALLEL") != ""

// effectiveParallelism is the number of shards that can actually execute
// concurrently.
func effectiveParallelism() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	return n
}

// partition recomputes shard bounds balancing per-node weights (nil means
// uniform), snapping each cut to a preferred chiplet boundary — or
// failing that a 64-aligned position — when one lies within the balance
// slack. Reports whether the bounds changed; the caller must refit then.
func (p *parallelState) partition(net *Network, weights []int32) bool {
	total := len(net.Nodes)
	n := p.workers
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
func (p *parallelState) cutNear(net *Network, t, slack int64) int {
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
// link→shard maps, the shared-word bitmap, and the homes of any queued
// wake-list entries. Wake membership itself is unchanged — repartitioning
// never touches simulation state, only ownership.
func (p *parallelState) refit(net *Network) {
	total := len(net.Nodes)
	n := p.workers
	for i, w := 0, 0; i < total; i++ {
		for w+1 < n && i >= p.bounds[w+1] {
			w++
		}
		p.nodeShard[i] = int32(w)
	}
	for i := range p.sharedWords {
		p.sharedWords[i] = 0
	}
	if !p.single {
		// A boundary interior to a 64-node word makes that word visible to
		// two shards; inline (single) execution needs no atomics.
		for w := 1; w < n; w++ {
			if b := p.bounds[w]; b&63 != 0 && b < total {
				wi := uint(b) >> 6
				p.sharedWords[wi>>6] |= 1 << (wi & 63)
			}
		}
	}
	for i, l := range net.Links {
		p.linkDstShard[i] = p.nodeShard[l.Dst]
		p.linkSrcShard[i] = p.nodeShard[l.Src]
	}
	// Re-home queued wake entries (only non-empty when cuts move while
	// link pipelines hold work, e.g. SetShardCuts mid-run).
	p.tmp = p.tmp[:0]
	for w := range p.fwdWake {
		p.tmp = append(p.tmp, p.fwdWake[w]...)
		p.fwdWake[w] = p.fwdWake[w][:0]
	}
	for _, li := range p.tmp {
		d := p.linkDstShard[li]
		p.fwdWake[d] = append(p.fwdWake[d], li)
	}
	p.tmp = p.tmp[:0]
	for w := range p.crWake {
		p.tmp = append(p.tmp, p.crWake[w]...)
		p.crWake[w] = p.crWake[w][:0]
	}
	for _, li := range p.tmp {
		s := p.linkSrcShard[li]
		p.crWake[s] = append(p.crWake[s], li)
	}
}

// bindDeliverFns builds the per-link delivery closures once. The closures
// look the owning scratch up through linkDstShard at call time, so
// rebalancing needs no rebinding.
func (p *parallelState) bindDeliverFns(net *Network) {
	p.deliverFns = make([]func(Flit), len(net.Links))
	for i, l := range net.Links {
		dst := net.Nodes[l.Dst]
		port := l.DstPort
		wi, bit := uint(l.Dst)>>6, uint64(1)<<(uint(l.Dst)&63)
		li := int32(i)
		p.deliverFns[i] = func(f Flit) {
			dst.deliver(port, f)
			if p.isShared(wi) {
				atomic.OrUint64(&net.nodeWake[wi], bit)
			} else {
				net.nodeWake[wi] |= bit
			}
			p.scratch[p.linkDstShard[li]].moved++
		}
	}
}

// isShared reports whether wake word wi is crossed by a shard boundary
// and therefore needs atomic access.
func (p *parallelState) isShared(wi uint) bool {
	return p.sharedWords[wi>>6]>>(wi&63)&1 != 0
}

// maybeRebalance re-weights the partition from the live wake population.
// Called only at quiescence boundaries (net.idle()): no flits are
// buffered or in flight, so nodeWake is empty and the source-queue wake
// bitmap is the only live load signal.
func (p *parallelState) maybeRebalance(net *Network) {
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

// startWorkers launches n-1 persistent worker goroutines (the coordinator
// is shard 0), parked on their command channels between steps.
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

// dispatch runs fn(worker) on every worker and waits. The channel
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
// loop. SetWorkers calls it when re-sharding or restoring sequential mode
// (ws is nil in single mode); as the workerSet's finalizer it is the
// backstop for a network dropped without SetWorkers(0), where the workers
// are parked and exit at once.
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

// stepParallel is Step's parallel twin.
func (net *Network) stepParallel() {
	p := net.par
	net.moved = 0
	if p.single {
		for w := 0; w < p.workers; w++ {
			net.parPhase1(w)
		}
		for w := 0; w < p.workers; w++ {
			net.parPhase2(w)
		}
	} else {
		p.ws.dispatch(p.phase1Fn)
		p.ws.dispatch(p.phase2Fn)
	}

	// Merge scratch, run sinks and distribute woken links in deterministic
	// (shard) order.
	for w := range p.scratch {
		net.mergeScratch(&p.scratch[w], false)
	}

	net.watchdog()
	net.Now++
}

// parPhase1 runs one shard's link deliveries (sharded by destination
// router — they write that router's buffers and wake bits) fused with
// credit completions (sharded by source router — they write that router's
// credit counters). The two halves touch disjoint Link fields (forward
// pipe and fwdQueued vs credit pipe and crQueued), so one barrier covers
// both.
func (net *Network) parPhase1(w int) {
	p := net.par
	if lw := p.fwdWake[w]; len(lw) > 0 {
		sc := &p.scratch[w]
		// Inline (single-CPU) mode runs every shard on the coordinator, so
		// the cheaper sequential per-flit closures are safe — the parallel
		// twins pay a per-flit shard lookup only real workers need.
		fns := p.deliverFns
		if p.single {
			fns = net.deliverFns
		}
		keep := lw[:0]
		for _, li := range lw {
			l := net.Links[li]
			net.linkArrivals(l, fns[li], &sc.moved, p.isShared(uint(l.Dst)>>6))
			if l.fwdBusy() {
				keep = append(keep, li)
			} else {
				l.fwdQueued = false
			}
		}
		p.fwdWake[w] = keep
	}
	if lw := p.crWake[w]; len(lw) > 0 {
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
		p.crWake[w] = keep
	}
}

// parPhase2 runs one shard's router pipelines fused with injection — both
// only touch the shard's own routers and wake bits, and injected flits
// are not observable elsewhere until the next cycle's link phase. The
// router work bitmaps (allocPend/saActive/saReady) and the parking state
// (vaParked, OutPort.parked/waitSlot) follow the same ownership
// discipline: deliveries mark pending slots on the destination shard in
// phase 1, credit completions unpark at the source router in phase 1, and
// ticks/injection touch only the shard's own routers here. Wake words
// crossed by a shard boundary are the one exception, handled with atomic
// Or/And — other shards only ever touch *their* bits of such a word.
func (net *Network) parPhase2(w int) {
	p := net.par
	lo, hi := p.bounds[w], p.bounds[w+1]
	if lo >= hi {
		return
	}
	sc := &p.scratch[w]
	ctx := tickContext{net: net, scratch: sc, reference: net.refTick}
	net.tickNodeRange(&ctx, lo, hi)
	net.injectNodeRange(sc, lo, hi)
}

// tickNodeRange runs Phase 2 for the routers woken in nodes [lo, hi), in
// ascending node order, clearing the bit of any router that drained
// completely. The parallel twin of tickNodes: ranges are node positions,
// not word positions, with boundary words masked and accessed atomically
// when shared.
func (net *Network) tickNodeRange(ctx *tickContext, lo, hi int) {
	p := net.par
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

// injectNodeRange runs Phase 3 for the sources woken in nodes [lo, hi),
// the parallel twin of injectNodes.
func (net *Network) injectNodeRange(sc *workerScratch, lo, hi int) {
	p := net.par
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
