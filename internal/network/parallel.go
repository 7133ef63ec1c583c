package network

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
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
// creates one shard covering every node; the first Step re-cuts into the
// count Config.Workers asks for (0: autoShards), and SetWorkers(n) re-cuts
// into n at any time. Step runs phase 1 on every shard, then phase 2 on
// every shard, then merges the scratches in shard order. With one shard
// each phase is a direct call: no goroutine, no finalizer. With n shards
// the phases run on n-1 persistent worker goroutines (the caller is shard
// 0) that meet the caller at one generation-counter barrier, polling
// briefly and then parking; the two phase functions are bound once, so
// dispatching a step performs no allocation. An automatic count whose
// barrier keeps waiting for descheduled partners drops back to one shard
// (contentionWindow).
//
// Every nodeWake/srcWake bitmap word has exactly one owning shard: shard
// bounds fall on 64-node word boundaries, so a shard reads and writes its
// words with plain loads and stores. The partitioner balances shards by
// word count and moves a cut onto a declared chiplet boundary
// (Network.SetShardCuts, fed by topology.Topo.ShardCuts) when one is
// word-aligned and near: cross-shard traffic then rides the modeled D2D
// interface links instead of intra-chiplet mesh hops. Bounds change only
// when the caller re-cuts (SetWorkers, SetShardCuts) or the first Step
// resolves the shard count, never with load.
//
// Links woken by a router tick (a granted run or credit return on a possibly
// foreign-shard link) are recorded in the shard's private scratch and
// folded into the owning shard's wake list at the merge. Shared aggregates
// (movement counters, grant/VA statistics, finished packets) are
// accumulated per shard and merged in shard order, and the Sink/OnDeliver
// callbacks run on the goroutine that called Step, so results are
// bit-identical for every shard count and placement — see
// TestParallelMatchesSequential and experiments.FuzzSimPoint, whose
// Table-2 seeds' one-shard runs are pinned to golden constants.
type shardState struct {
	// bounds[w]..bounds[w+1] is shard w's node range; every interior bound
	// is a multiple of 64. A shard may be empty (more shards than words).
	bounds []int

	linkDstShard []int32 // owning shard of each link's forward wake entry
	linkSrcShard []int32 // owning shard of each link's credit wake entry

	sh []shard // one per shard: len(sh) is the shard count

	// phase1Fn/phase2Fn are bound once; dispatch publishes these prebuilt
	// values so a step allocates nothing. One shard has no workers (ws is
	// nil) and Step calls the phases directly.
	phase1Fn func(int)
	phase2Fn func(int)
	ws       *workerSet
}

// workerSet is the shard state's handle on its worker goroutines, and the
// one object of the stepper that carries a finalizer, so nothing reachable
// from it may lead back to the shardState or the Network: both are
// self-cyclic through their closures (deliverFns and the phase functions
// capture the Network), and the collector neither finalizes nor frees a
// cycle that contains a finalizer. The workers hold the barrier, not this
// handle, so a dropped network's handle becomes unreachable while they
// wait; the barrier holds a phase function only while a dispatch is in
// flight.
type workerSet struct{ b *barrier }

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
// caller plus n-1 worker goroutines (1 or 0: one shard, no goroutine) and
// pins that count by recording it in Cfg.Workers: the first Step no longer
// picks one (see autoShards). Results are identical for every n. n is
// taken at its word, even past the CPUs the process can use; the workers
// then park instead of polling between phases, which keeps them correct
// but adds a wake-up per phase. Asking for the current count is a no-op.
// SetWorkers(0) stops the previous workers before it returns; a network
// dropped while still sharded is released by the workerSet finalizer at a
// later collection.
func (net *Network) SetWorkers(n int) {
	n = max(n, 1)
	if n > 1 && net.Tracer != nil {
		panic(tracerNeedsOneShard)
	}
	net.Cfg.Workers = n
	if p := net.shards; p != nil && len(p.sh) == n {
		return
	}
	net.setShards(n)
}

// Workers reports the number of shards the network steps on: 1 until the
// first Step resolves Cfg.Workers, unless SetWorkers set it first, and 1
// again once an automatic count has met a contended host (see
// contentionWindow).
func (net *Network) Workers() int { return len(net.shards.sh) }

// nodesPerShard is the system size each shard of an automatic count must
// cover. Below 1,024 nodes a second shard loses or breaks even at low load
// on a two-CPU host; from 1,024 up it wins at every load measured
// (DESIGN.md, "Where sharding pays").
const nodesPerShard = 512

// cpus is how many goroutines of this process can run at once.
func cpus() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// autoShards is the shard count Cfg.Workers = 0 resolves to on the first
// Step: one per nodesPerShard nodes, at most one per CPU, and one whenever
// a Tracer is attached (its events must come from one goroutine). The CPUs
// are assumed to be the process's own; where other processes hold them,
// Step falls back to one shard after a contentionWindow.
func (net *Network) autoShards() int {
	if net.Tracer != nil {
		return 1
	}
	return max(1, min(len(net.Nodes)/nodesPerShard, cpus()))
}

// setShards builds the shard state for n shards from scratch — ownership
// maps, wake lists, workers — replacing any previous one. Simulation state
// is untouched, and so is every wake structure but the link lists: those
// are refilled from the links' queued flags, which no cut changes, in the
// one pass over the links that assigns their owners.
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
		d, s := wordShard[l.Dst>>6], wordShard[l.Src>>6]
		p.linkDstShard[i], p.linkSrcShard[i] = d, s
		if l.fwdQueued {
			p.sh[d].fwdWake = append(p.sh[d].fwdWake, int32(i))
		}
		if l.crQueued {
			p.sh[s].crWake = append(p.sh[s].crWake, int32(i))
		}
	}
	if n > 1 {
		p.ws = startWorkers(n)
	}
	net.shards = p
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

// spinFor is how long a waiting goroutine polls the barrier before it
// parks. A parked goroutine costs a wake-up at the next dispatch, and on a
// virtualised two-CPU host waking an idle vCPU takes 100–250 µs, more
// than a low-load cycle of a 1,024-node system. So the budget must outlast
// the caller's serial work between dispatches (merge, watchdog, workload
// driver) and the imbalance between shards: with 15 µs, 80 % of the
// dispatches of a 1,296-node run parked and two shards lost to one; with
// 250 µs, under 1 % did. It is a duration rather than a poll count, so a
// slower poll (the race detector's) waits as long.
const spinFor = 250 * time.Microsecond

// pollsPerClock is how many polls run between two reads of the clock.
const pollsPerClock = 256

// pollCredit decides whether a waiter polls at all (see wait): a wait that
// ended within spinFor earns its credit one point, a longer one costs
// pollCredit, the credit stays within ±pollCredit, and the waiter polls
// while it is positive. On a quiet host under 1 wait in 300 outlasts
// spinFor (a quiescence jump, a compute gap), and polling stays on. Where
// other processes hold the CPUs, partners are descheduled far more often
// than 1 wait in 33: the credit sinks, and polling, which would only burn
// the CPU they need, stays off until short waits outnumber long ones 33 to
// 1 again. With polling always on, two test binaries stepping sharded
// networks side by side on two vCPUs took 41–45 s instead of 25 s; with
// the credit, 28 s.
const pollCredit = 32

// contentionWindow is how many dispatches the caller tallies before it
// judges whether the host is contended: more than half of them left its
// poll credit negative, so a worker was late by more than spinFor at least
// once every pollCredit dispatches throughout. An automatically sharded
// network then drops to one shard for the rest of its run (Step), since
// its partners keep losing their CPUs to other processes; a pinned one
// keeps its count, its waiters parking at once while their credits are
// negative. On an idle two-CPU host no
// window of the bench workloads reached a fifth; with three bench
// processes on two vCPUs the first window already passed half, most
// windows read 80–100 %.
const contentionWindow = 1024

// startWorkers launches n-1 persistent worker goroutines (Step's caller is
// shard 0) on a fresh barrier. They poll only when every shard can have a
// CPU of its own: past cpus() a poller would burn the time slice its
// partner needs, so each wait parks at once.
func startWorkers(n int) *workerSet {
	b := &barrier{n: int32(n), spin: n <= cpus(), callerCredit: pollCredit}
	b.workers.L = &b.mu
	b.caller.L = &b.mu
	for w := 1; w < n; w++ {
		go b.work(w)
	}
	ws := &workerSet{b: b}
	runtime.SetFinalizer(ws, (*workerSet).stop)
	return ws
}

// barrier is one generation-counter barrier shared by Step's caller and
// the workers. A dispatch publishes the phase function, resets the done
// count and bumps the generation; each worker, seeing a new generation,
// runs the phase on its shard and counts itself done; the caller runs
// shard 0 and waits for the count to reach n-1. The atomics provide the
// happens-before edges that publish one phase's writes to every shard
// before the next phase reads them.
type barrier struct {
	gen  atomic.Uint32 // bumped once per dispatch
	done atomic.Int32  // workers finished with the current generation
	fn   func(int)     // the phase in flight: nil between dispatches, and nil in flight to stop
	n    int32         // shard count; the workers are shards 1..n-1
	spin bool          // polling can pay: no more shards than CPUs

	callerCredit int // the caller's poll credit (see wait)

	// The caller's contention window (see contentionWindow): dispatches
	// counted so far, how many of them left callerCredit negative, and the
	// verdict of the last full window.
	dispatched, sunk int
	contended        bool

	mu      sync.Mutex
	workers waitQueue // workers waiting for a new generation
	caller  waitQueue // the caller waiting for the last worker
}

// waitQueue is where goroutines park. parked counts those that have
// declared themselves parked, so a waker takes the mutex only when someone
// may be asleep and a busy run never touches it.
type waitQueue struct {
	sync.Cond
	parked atomic.Int32
	woke   time.Time // when the last wake found someone parked; under the mutex
}

// wait returns once ok holds: while the waiter's credit is positive it
// polls for up to spinFor, then it parks on q. A waiter declares itself
// parked before its last look at ok and a waker makes ok true before it
// looks at parked, so either the waiter sees ok or the waker sees it
// parked. The credit is then settled by when ok came true — for a parked
// waiter, when the waker woke it — so waits that polling would have
// caught earn it whether or not this one polled (see pollCredit).
func (b *barrier) wait(q *waitQueue, credit *int, ok func() bool) {
	start := time.Now()
	if b.spin && *credit > 0 {
		for i := 1; i%pollsPerClock != 0 || time.Since(start) < spinFor; i++ {
			if ok() {
				*credit = min(*credit+1, pollCredit)
				return
			}
		}
	}
	b.mu.Lock()
	q.parked.Add(1)
	at := time.Now()
	for !ok() {
		q.Wait()
		at = q.woke
	}
	q.parked.Add(-1)
	b.mu.Unlock()
	if at.Sub(start) < spinFor {
		*credit = min(*credit+1, pollCredit)
	} else {
		*credit = max(*credit-pollCredit, -pollCredit)
	}
}

// wake wakes every goroutine parked on q, after the caller made its
// condition true.
func (b *barrier) wake(q *waitQueue) {
	if q.parked.Load() > 0 {
		b.mu.Lock()
		q.woke = time.Now()
		q.Broadcast()
		b.mu.Unlock()
	}
}

// dispatch runs fn on every shard and returns when all have finished; a nil
// fn makes the workers exit instead. It returns (or, when shard 0 panics,
// unwinds) only after every worker has finished, so the cleanup of a point
// that panicked cannot race a worker still in the phase, and fn is cleared
// on the way out: between steps the barrier reaches nothing of the Network.
func (b *barrier) dispatch(fn func(int)) {
	b.fn = fn
	b.done.Store(0)
	b.gen.Add(1)
	b.wake(&b.workers)
	defer func() {
		b.wait(&b.caller, &b.callerCredit, func() bool { return b.done.Load() == b.n-1 })
		b.fn = nil
		b.tally()
	}()
	if fn != nil {
		fn(0)
	}
}

// tally counts the dispatch that just ended towards the contention window.
func (b *barrier) tally() {
	if b.callerCredit < 0 {
		b.sunk++
	}
	if b.dispatched++; b.dispatched == contentionWindow {
		b.contended = b.sunk > contentionWindow/2
		b.dispatched, b.sunk = 0, 0
	}
}

// work is worker w's loop. It holds the barrier and nothing else: the phase
// function lives only in run's frame, so a waiting worker keeps neither the
// shard state nor the Network alive.
func (b *barrier) work(w int) {
	credit := pollCredit
	for seen := uint32(0); ; seen++ {
		b.wait(&b.workers, &credit, func() bool { return b.gen.Load() != seen })
		if !b.run(w) {
			return
		}
	}
}

// run executes the phase in flight on shard w and counts the worker done,
// waking the caller if it is the last. It reports false when the dispatch
// asked the workers to exit.
func (b *barrier) run(w int) bool {
	fn := b.fn
	if fn != nil {
		fn(w)
	}
	if b.done.Add(1) == b.n-1 {
		b.wake(&b.caller)
	}
	return fn != nil
}

// stop releases the worker goroutines and returns once each has finished
// its last dispatch. setShards calls it when re-cutting (ws is nil at one
// shard); as the workerSet's finalizer it is the backstop for a network
// dropped without SetWorkers(0), whose workers are waiting and exit at once.
func (ws *workerSet) stop() {
	if ws == nil {
		return
	}
	runtime.SetFinalizer(ws, nil)
	ws.b.dispatch(nil)
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
