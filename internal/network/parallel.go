package network

import (
	"math/bits"
	"runtime"
	"sort"
)

// Sharded stepping — the one cycle engine. The synchronous two-phase cycle
// model is embarrassingly parallel *within* each phase once writes are
// grouped by owner:
//
//   - link delivery writes only the destination router (links sharded by Dst);
//   - credit completion writes only the source router (links sharded by Src);
//   - a router tick writes its own state, the links it sources (AcceptRun,
//     acceptEach), the links it sinks (ReturnCredits) and the packets at
//     its VC heads —
//     all owned by exactly one router;
//   - injection writes only the node's own source queue and buffers.
//
// A finalized network is always cut into shards, contiguous node ranges
// that each own their wake lists and an accumulation scratch. Finalize
// creates one shard covering every node; SetWorkers(n) re-cuts into n.
// Step runs phase 1 on every shard, then phase 2 on every shard, then
// merges the scratches in shard order. With one shard each phase is a
// direct call: no goroutine, no finalizer. With n shards the phases run on
// n-1 persistent worker goroutines (the caller is shard 0) parked on
// per-worker command channels; the two phase functions are bound once, so
// dispatching a step performs no allocation.
//
// Every nodeWake/srcWake bitmap word has exactly one owning shard: shard
// bounds fall on 64-node word boundaries, so a shard reads and writes its
// words with plain loads and stores. The partitioner balances shards by
// word count and moves a cut onto a declared chiplet boundary
// (Network.SetShardCuts, fed by topology.Topo.ShardCuts) when one is
// word-aligned and near: cross-shard traffic then rides the modeled D2D
// interface links instead of intra-chiplet mesh hops. Bounds change only
// when the caller re-cuts (SetWorkers, SetShardCuts), never with load.
//
// Links woken by a router tick (a granted run or credit return on a possibly
// foreign-shard link) are recorded in the shard's private scratch and
// folded into the owning shard's wake list at the merge. Shared aggregates
// (movement counters, grant/VA statistics, finished packets) are
// accumulated per shard and merged in shard order, and the Sink/OnDeliver
// callbacks run on the goroutine that called Step, so results are
// bit-identical for every shard count and placement — see
// TestParallelMatchesSequential and experiments.TestParallelOracle, whose
// one-shard run is pinned to golden constants.
type shardState struct {
	// bounds[w]..bounds[w+1] is shard w's node range; every interior bound
	// is a multiple of 64. A shard may be empty (more shards than words).
	bounds []int

	linkDstShard []int32 // owning shard of each link's forward wake entry
	linkSrcShard []int32 // owning shard of each link's credit wake entry

	sh []shard // one per shard: len(sh) is the shard count

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

// SetShardCuts declares preferred shard boundary positions, normally the
// chiplet-row starts from topology.Topo.ShardCuts. The partitioner moves a
// balanced cut to the nearest declared position within its slack, keeping
// cross-shard traffic on the modeled D2D interface links. Positions out of
// range or not a multiple of 64 are dropped: a cut inside a wake word would
// give the word two owners. May be called before or after SetWorkers; a
// sharded network is re-cut at once (one shard has no cut to move).
func (net *Network) SetShardCuts(cuts []int) {
	net.shardCuts = net.shardCuts[:0]
	total := len(net.Nodes)
	for _, c := range cuts {
		if c > 0 && c < total && c%64 == 0 {
			net.shardCuts = append(net.shardCuts, c)
		}
	}
	sort.Ints(net.shardCuts)
	if p := net.shards; p != nil && len(p.sh) > 1 {
		net.setShards(len(p.sh))
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
	p := &shardState{
		bounds:       net.shardBounds(n),
		linkDstShard: make([]int32, len(net.Links)),
		linkSrcShard: make([]int32, len(net.Links)),
		sh:           make([]shard, n),
		phase1Fn:     net.phase1,
		phase2Fn:     net.phase2,
	}
	// A link's wake entries belong to the shard owning its endpoint's word.
	wordShard := make([]int32, (len(net.Nodes)+63)/64)
	for w := 0; w < n; w++ {
		for wi := p.bounds[w] >> 6; wi < (p.bounds[w+1]+63)>>6; wi++ {
			wordShard[wi] = int32(w)
		}
	}
	for i, l := range net.Links {
		p.linkDstShard[i] = wordShard[l.Dst>>6]
		p.linkSrcShard[i] = wordShard[l.Src>>6]
	}
	if n > 1 {
		p.ws = startWorkers(n)
	}
	net.shards = p
	net.rebuildWake()
}

// shardBounds cuts the nodes into n contiguous ranges whose interior bounds
// are multiples of 64, so every wake word has one owning shard. Cut w sits
// after words·w/n whole words, unless a declared cut (SetShardCuts keeps
// only word-aligned ones) lies within a quarter of an ideal shard of that:
// then the nearest declared cut wins. The slack is too small for
// neighbouring cuts to meet, so every shard is non-empty up to one shard
// per word; beyond that the surplus shards are empty.
func (net *Network) shardBounds(n int) []int {
	total := len(net.Nodes)
	words := (total + 63) / 64
	slack := total/(4*n) + 1
	cuts := net.shardCuts
	bounds := make([]int, n+1)
	bounds[n] = total
	for w := 1; w < n; w++ {
		b := words * w / n * 64
		best, bestD := b, slack+1
		ci := sort.SearchInts(cuts, b)
		for _, c := range cuts[max(ci-1, 0):min(ci+1, len(cuts))] {
			if d := max(c-b, b-c); d < bestD {
				best, bestD = c, d
			}
		}
		bounds[w] = best
	}
	return bounds
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
// only touch the shard's own routers and wake words, and injected flits
// are not observable elsewhere until the next cycle's link phase. The
// router work bitmaps (allocPend/saActive/saReady) and the parking state
// (vaParked, OutPort.parked/waitSlot) follow the same ownership
// discipline: deliveries mark pending slots on the destination shard in
// phase 1, credit completions unpark at the source router in phase 1, and
// ticks/injection touch only the shard's own routers here.
func (net *Network) phase2(w int) {
	p := net.shards
	lo, hi := p.bounds[w], p.bounds[w+1]
	if lo >= hi {
		return
	}
	sc := &p.sh[w].scratch
	// Step refuses a Tracer above one shard, so a non-nil one is only ever
	// called from the stepping goroutine.
	ctx := tickContext{net: net, scratch: sc, tracer: net.Tracer}
	net.tickNodeRange(&ctx, lo, hi)
	net.injectNodeRange(sc, lo, hi)
}

// tickNodeRange runs the router pipelines of the nodes in [lo, hi) whose
// wake bit is set, in ascending node order (Sink determinism depends on it
// — see the package comment), clearing the bit of any router that drained
// completely. lo is word-aligned and hi is too unless it is the node
// count, so the range covers whole words this shard alone owns.
func (net *Network) tickNodeRange(ctx *tickContext, lo, hi int) {
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		for w := net.nodeWake[wi]; w != 0; {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			r := net.Nodes[wi<<6+b]
			r.tickCtx(ctx)
			if r.buffered == 0 {
				net.nodeWake[wi] &^= 1 << uint(b)
			}
		}
	}
}

// injectNodeRange runs injection for the sources woken in nodes [lo, hi),
// in ascending node order, clearing the bit of any source whose queue
// emptied.
func (net *Network) injectNodeRange(sc *workerScratch, lo, hi int) {
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		for w := net.srcWake[wi]; w != 0; {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			ni := wi<<6 + b
			net.injectNode(ni, sc)
			s := &net.sources[ni]
			if s.cur == nil && s.head == len(s.q) {
				net.srcWake[wi] &^= 1 << uint(b)
			}
		}
	}
}
