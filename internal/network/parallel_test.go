package network

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestParallelMatchesSequential: four shards must be bit-identical to one
// — same deliveries, same latencies, same counters. The ring has 64 nodes
// per shard, one wake word each.
func TestParallelMatchesSequential(t *testing.T) {
	build := func(workers int) (*Network, map[uint64]int64) {
		const n = 256
		net := buildRing(t, n)
		net.SetWorkers(workers)
		arrivals := map[uint64]int64{}
		net.Sink = func(p *Packet) { arrivals[p.ID] = p.ArrivedAt }
		// Deterministic traffic: every node sends to (i+5)%n periodically.
		drive := func(now int64) {
			if now%7 != 0 || now > 600 {
				return
			}
			for i := 0; i < n; i++ {
				pkt := net.NewPacket(NodeID(i), NodeID((i+5)%n), 8, now)
				net.Offer(pkt)
			}
		}
		if err := net.Run(1500, drive); err != nil {
			t.Fatal(err)
		}
		return net, arrivals
	}

	seqNet, seqArr := build(1)
	parNet, parArr := build(4)

	if len(seqArr) == 0 {
		t.Fatal("no traffic delivered")
	}
	if len(seqArr) != len(parArr) {
		t.Fatalf("deliveries differ: %d sequential vs %d parallel", len(seqArr), len(parArr))
	}
	for id, at := range seqArr {
		if parArr[id] != at {
			t.Fatalf("packet %d arrived at %d sequentially but %d in parallel", id, at, parArr[id])
		}
	}
	if seqNet.PacketsDelivered() != parNet.PacketsDelivered() ||
		seqNet.InFlightFlits() != parNet.InFlightFlits() {
		t.Fatal("network counters diverge between modes")
	}
	if err := parNet.CheckCredits(); err != nil {
		t.Fatal(err)
	}
}

// buildRing constructs a unidirectional ring of n nodes whose links cycle
// through on-chip, parallel and serial kinds.
func buildRing(tb testing.TB, n int) *Network {
	net := declareRing(tb, n)
	net.Finalize()
	return net
}

// declareRing is buildRing before Finalize.
func declareRing(tb testing.TB, n int) *Network {
	net, err := New(DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	net.AddNodes(n)
	for i := 0; i < n; i++ {
		kind := KindOnChip
		if i%3 == 1 {
			kind = KindParallel
		} else if i%3 == 2 {
			kind = KindSerial
		}
		net.Connect(kind, NodeID(i), NodeID((i+1)%n))
	}
	net.Routing = ringRouting{}
	return net
}

// ringRouting forwards clockwise around the ring.
type ringRouting struct{}

func (ringRouting) Name() string { return "ring" }
func (ringRouting) Route(net *Network, r *Router, _ int, pkt *Packet, buf []Candidate) []Candidate {
	for i := 1; i < len(r.Out); i++ {
		if r.Out[i].Link != nil {
			return append(buf, Candidate{Port: i, VCMask: allVCs(net.Cfg.VCs), Escape: true})
		}
	}
	panic("ring: no out port")
}

// rowCuts lists the mesh-row starts of a side×side mesh, standing in for
// the chiplet-row cut points topology.Topo.ShardCuts produces.
func rowCuts(side int) []int {
	var cuts []int
	for b := side; b < side*side; b += side {
		cuts = append(cuts, b)
	}
	return cuts
}

// runSaturatedMesh drives a saturated side×side mesh for the given cycles
// and returns the network plus per-packet arrival times.
func runSaturatedMesh(t *testing.T, side, workers int, cuts []int, cycles int64) (*Network, map[uint64]int64) {
	t.Helper()
	net := buildXYMesh(t, side)
	if cuts != nil {
		net.SetShardCuts(cuts)
	}
	net.SetWorkers(workers)
	arr := map[uint64]int64{}
	net.Sink = func(p *Packet) { arr[p.ID] = p.ArrivedAt }
	for net.Now < cycles {
		saturateXYMesh(net, net.Now)
		net.Step()
	}
	if err := net.CheckCredits(); err != nil {
		t.Fatalf("side=%d workers=%d: %v", side, workers, err)
	}
	return net, arr
}

// checkWordBounds fails unless every interior shard bound is a multiple of
// 64, so no wake word has two owners.
func checkWordBounds(t *testing.T, bounds []int) {
	t.Helper()
	for w := 1; w < len(bounds)-1; w++ {
		if bounds[w]%64 != 0 || bounds[w] < bounds[w-1] {
			t.Fatalf("bounds %v: interior bound %d is not an ascending multiple of 64", bounds, bounds[w])
		}
	}
}

// TestWakeWordLines: no 64-byte cache line holds nodeWake or srcWake words
// of two shards, so shards never write one line in the same phase. It
// checks the addresses of the words themselves on meshes of 256, 1,024,
// 1,296 and 3,136 nodes, with their row starts declared as cuts, at every
// count of 1-4 cut at Finalize and again after SetWorkers re-cuts.
func TestWakeWordLines(t *testing.T) {
	check := func(net *Network, when string) {
		t.Helper()
		owner := map[uintptr]int{}
		p := net.shards
		for w := range p.sh {
			for node := p.bounds[w]; node < p.bounds[w+1]; node += 64 {
				for _, words := range [][]uint64{net.nodeWake, net.srcWake} {
					line := uintptr(unsafe.Pointer(&words[node>>6*wakeStride])) / 64
					if o, ok := owner[line]; ok && o != w {
						t.Fatalf("%d nodes, %s, bounds %v: one cache line holds wake words of shards %d and %d",
							len(net.Nodes), when, p.bounds, o, w)
					}
					owner[line] = w
				}
			}
		}
	}
	for _, side := range []int{16, 32, 36, 56} {
		for n := 1; n <= 4; n++ {
			net := declareMesh(t, side, func(int) LinkKind { return KindOnChip })
			net.Cfg.Workers = n
			net.SetShardCuts(rowCuts(side))
			net.Finalize()
			check(net, fmt.Sprintf("%d shards at Finalize", n))
			for m := 1; m <= 4; m++ {
				net.SetWorkers(m)
				check(net, fmt.Sprintf("re-cut from %d to %d shards", n, m))
			}
			net.SetWorkers(1)
		}
	}
}

// TestParallelWordShards: a 256-node mesh (four wake words) cut at 2, 3
// and 5 shards with chiplet-row cuts declared stays bit-identical to one
// shard. At 5 shards there are more shards than words, so one is empty.
// SetWorkers(n>1) always dispatches to real goroutines, even on a
// single-CPU host, so `go test -race` checks the cross-shard
// happens-before edges here.
func TestParallelWordShards(t *testing.T) {
	const side, cycles = 16, 800
	seqNet, want := runSaturatedMesh(t, side, 1, nil, cycles)
	if len(want) == 0 {
		t.Fatal("no traffic delivered")
	}
	for _, workers := range []int{2, 3, 5} {
		net, got := runSaturatedMesh(t, side, workers, rowCuts(side), cycles)
		p := net.shards
		if p.ws == nil || int(p.ws.b.n) != workers {
			t.Fatalf("workers=%d: SetWorkers did not start %d worker goroutines", workers, workers-1)
		}
		checkWordBounds(t, p.bounds)
		empty := 0
		for w := 0; w < workers; w++ {
			if p.bounds[w] == p.bounds[w+1] {
				empty++
			}
		}
		if wantEmpty := max(workers-4, 0); empty != wantEmpty {
			t.Errorf("workers=%d: bounds %v have %d empty shards, want %d", workers, p.bounds, empty, wantEmpty)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d deliveries vs %d sequential", workers, len(got), len(want))
		}
		for id, at := range want {
			if got[id] != at {
				t.Fatalf("workers=%d: packet %d arrived at %d, sequential %d", workers, id, got[id], at)
			}
		}
		if net.VAFailures != seqNet.VAFailures || net.GrantsByKind != seqNet.GrantsByKind {
			t.Errorf("workers=%d: allocation counters diverge from sequential", workers)
		}
		net.SetWorkers(0)
	}
}

// TestParallelOversubscribed: eight shards on one and on two CPUs — more
// shards than can run at once, so the barrier must park instead of poll —
// step a saturated 1,024-node mesh bit-identically to one shard and within
// a few times its wall time. A goroutine polling for a partner that cannot
// run until the poller yields would burn its poll budget (or a whole
// scheduler time slice) on every phase of every cycle.
func TestParallelOversubscribed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second; the race job runs it in the network parallel set")
	}
	const side, cycles = 32, 2000
	start := time.Now()
	seqNet, want := runSaturatedMesh(t, side, 1, nil, cycles)
	bound := 3*time.Since(start) + 2*time.Second
	if len(want) == 0 {
		t.Fatal("no traffic delivered")
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		start := time.Now()
		net, got := runSaturatedMesh(t, side, 8, rowCuts(side), cycles)
		elapsed := time.Since(start)
		net.SetWorkers(0)
		runtime.GOMAXPROCS(prev)
		if len(got) != len(want) || net.VAFailures != seqNet.VAFailures || net.GrantsByKind != seqNet.GrantsByKind {
			t.Fatalf("GOMAXPROCS=%d: %d deliveries vs %d, or allocation counters diverge from one shard", procs, len(got), len(want))
		}
		for id, at := range want {
			if got[id] != at {
				t.Fatalf("GOMAXPROCS=%d: packet %d arrived at %d, one shard %d", procs, id, got[id], at)
			}
		}
		if elapsed > bound {
			t.Errorf("GOMAXPROCS=%d: 8 shards took %v, bound %v (3× one shard + 2 s)", procs, elapsed, bound)
		}
	}
}

// TestShardPanicWaitsForWorkers: a protocol panic on shard 0 reaches
// Step's caller only once the worker has finished the phase, so a cleanup
// that re-cuts the network (SetWorkers(0), as every experiment point's
// does) neither races the worker nor hangs. Shard 1 carries traffic, so
// its worker is busy when shard 0 panics.
func TestShardPanicWaitsForWorkers(t *testing.T) {
	const n = 256
	net := declareRing(t, n)
	net.Nodes[1].ejBW = 0 // node 1 never ejects: its input overflows
	net.Finalize()
	net.SetWorkers(2)
	l := net.Links[0] // 0 → 1
	out := &net.Nodes[0].Out[l.SrcPort]
	out.Credits[0] += out.Depth
	for i := 0; i < 2*int(out.Depth); i++ {
		net.Offer(net.NewPacket(0, 1, 4, 0))
	}
	for src := n / 2; src < n; src++ {
		for k := 0; k < 8; k++ {
			net.Offer(net.NewPacket(NodeID(src), NodeID((src+9)%n), 8, 0))
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("credit violation went unnoticed")
			}
			net.SetWorkers(0)
		}()
		for net.Now < int64(16*out.Depth) {
			net.Step()
		}
	}()
	if net.Workers() != 1 || net.InFlightFlits() == 0 {
		t.Fatalf("after the panic: %d shards, %d flits in flight; want 1 shard and the worker's flits", net.Workers(), net.InFlightFlits())
	}
}

// TestBarrierPollCredit: a waiter kept waiting past spinFor twice stops
// polling, and polls again only after pollCredit+1 short waits; waits that
// do not poll still earn credit when they end within spinFor.
func TestBarrierPollCredit(t *testing.T) {
	b := &barrier{spin: true}
	b.workers.L = &b.mu
	credit := pollCredit
	for i := 0; i < 2; i++ {
		var ready atomic.Bool
		go func() {
			time.Sleep(2 * spinFor)
			ready.Store(true)
			b.wake(&b.workers)
		}()
		b.wait(&b.workers, &credit, ready.Load)
	}
	if credit != -pollCredit {
		t.Fatalf("credit %d after two long waits, want %d", credit, -pollCredit)
	}
	short := func() bool { return true }
	for i := 0; i < pollCredit; i++ {
		b.wait(&b.workers, &credit, short)
	}
	if credit != 0 {
		t.Fatalf("credit %d after %d short waits, want 0 (polling still off)", credit, pollCredit)
	}
	b.wait(&b.workers, &credit, short)
	if credit != 1 {
		t.Fatalf("credit %d after %d short waits, want 1 (polling back on)", credit, pollCredit+1)
	}
}

// TestAutoShards: Cfg.Workers = 0 resolves at Finalize to one shard per
// 512 nodes, at most one per CPU, and from then on follows the load
// window by window: a saturated 256-node mesh is promoted within one window
// with the arrivals of one shard throughout, drops back to its size floor
// once its traffic stops but not while the load stays over half of what
// two shards need, and a lightly loaded one never moves. SetWorkers,
// before or after Finalize, and Cfg.Workers ≥ 1 pin the count; so does a
// single CPU.
func TestAutoShards(t *testing.T) {
	step := func(net *Network) int {
		t.Cleanup(func() { net.SetWorkers(0) })
		net.Offer(net.NewPacket(0, 1, 4, net.Now))
		net.Step()
		return net.Workers()
	}
	for _, n := range []int{64, 512, 1024, 1536, 2048} {
		if got, want := step(buildRing(t, n)), max(1, min(n/512, cpus())); got != want {
			t.Errorf("%d nodes: %d shards, want %d", n, got, want)
		}
	}

	for _, pin := range []int{0, 1} {
		before := declareRing(t, 2048)
		before.SetWorkers(pin)
		before.Finalize()
		if got := step(before); got != 1 {
			t.Errorf("SetWorkers(%d) before Finalize: %d shards, want 1", pin, got)
		}
		after := buildRing(t, 2048)
		after.SetWorkers(pin)
		if got := step(after); got != 1 {
			t.Errorf("SetWorkers(%d) after Finalize: %d shards, want 1", pin, got)
		}
	}

	// windows steps net for k load windows, offering traffic through offer
	// when it is not nil, and returns the largest shard count it ends a
	// window on. It keeps the host from being judged contended, which on a
	// busy one would pin one shard for good (TestAutoShardsContended
	// covers that).
	windows := func(net *Network, k int, offer func(*Network, int64)) (most int) {
		t.Cleanup(func() { net.SetWorkers(0) })
		for end := net.Now + int64(k*loadWindow); net.Now < end; {
			if offer != nil {
				offer(net, net.Now)
			}
			if ws := net.shards.ws; ws != nil {
				ws.b.sunk = 0
			}
			if net.Step(); net.loadSteps == 0 {
				most = max(most, net.Workers())
			}
		}
		return most
	}
	_, want := runSaturatedMesh(t, 16, 1, nil, 2*loadWindow)
	busy := buildXYMesh(t, 16)
	got := map[uint64]int64{}
	busy.Sink = func(p *Packet) { got[p.ID] = p.ArrivedAt }
	if n := windows(busy, 1, saturateXYMesh); n < min(2, cpus()) {
		t.Errorf("saturated 256-node mesh: %d shards after one window, want at least %d", n, min(2, cpus()))
	}
	windows(busy, 1, saturateXYMesh)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("promoted mesh: %d deliveries vs %d on one shard", len(got), len(want))
	}
	for id, at := range want {
		if got[id] != at {
			t.Fatalf("promoted mesh: packet %d arrived at %d, %d on one shard", id, got[id], at)
		}
	}

	// Every node sends its X neighbour a packet every period cycles. At 8
	// that is 2 flits a cycle, its injection and link bandwidth, about
	// 2,000 movements a cycle; at 32 about 500, under what two shards need
	// but over half of it. Either way the mesh drains within a few cycles
	// once the traffic stops.
	neighbours := func(period int64) func(*Network, int64) {
		return func(net *Network, now int64) {
			for src := NodeID(now % period); src < 256; src += NodeID(period) {
				net.Offer(net.NewPacket(src, src^1, net.Cfg.PacketLength, now))
			}
		}
	}
	busy = buildXYMesh(t, 16)
	if n := windows(busy, 1, neighbours(8)); n != min(2, cpus()) {
		t.Errorf("busy 256-node mesh: %d shards, want %d", n, min(2, cpus()))
	}
	if windows(busy, 2, neighbours(32)); busy.Workers() != min(2, cpus()) {
		t.Errorf("256-node mesh at a quarter of that load: %d shards, want to keep %d", busy.Workers(), min(2, cpus()))
	}
	if windows(busy, 1, nil); busy.Workers() != 1 {
		t.Errorf("256-node mesh whose traffic stopped: %d shards a window later, want its size floor 1", busy.Workers())
	}

	for _, pin := range []int{1, 3} {
		pinned := declareMesh(t, 16, func(int) LinkKind { return KindOnChip })
		pinned.Cfg.Workers = pin
		pinned.Finalize()
		most := windows(pinned, 2, saturateXYMesh)
		if windows(pinned, 2, nil); most != pin || pinned.Workers() != pin {
			t.Errorf("Cfg.Workers = %d: up to %d shards saturated, %d idle, want %d", pin, most, pinned.Workers(), pin)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{64, 1024, 4096} {
		if got := step(buildRing(t, n)); got != 1 {
			t.Errorf("GOMAXPROCS=1, %d nodes: %d shards, want 1", n, got)
		}
	}
	if n := windows(buildXYMesh(t, 16), 2, saturateXYMesh); n != 1 {
		t.Errorf("GOMAXPROCS=1, saturated 256-node mesh: %d shards, want 1", n)
	}
}

// TestShardCutsSnap: a declared cut replaces the balanced one only when it
// is word-aligned and within a quarter of an ideal shard of it.
func TestShardCutsSnap(t *testing.T) {
	for _, tc := range []struct {
		side int
		cuts []int
		want int
	}{
		{32, []int{448}, 448}, // aligned, 64 from the balanced 512, slack 129: taken
		{32, []int{320}, 512}, // aligned but 192 away: balance
		{32, []int{8}, 512},   // unaligned and far: balance
		{16, []int{120}, 128}, // unaligned: dropped, the balanced word cut stays
		{16, nil, 128},
	} {
		net := buildXYMesh(t, tc.side)
		net.SetWorkers(2)
		net.SetShardCuts(tc.cuts)
		if got := net.shards.bounds[1]; got != tc.want {
			t.Errorf("%d nodes, cuts %v: bounds[1]=%d, want %d", tc.side*tc.side, tc.cuts, got, tc.want)
		}
		net.SetWorkers(0)
	}
}

// TestShardBoundsProperties: for any node count, shard count and declared
// cuts, bounds ascend from 0 to the node count, every interior bound is a
// multiple of 64, and min(n, words) shards are non-empty.
func TestShardBoundsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 5000; iter++ {
		total := 1 + rng.Intn(4000)
		n := 1 + rng.Intn(80)
		var cuts []int
		for k := rng.Intn(12); k > 0; k-- {
			c := rng.Intn(total + 64)
			if rng.Intn(2) == 0 {
				c &^= 63
			}
			cuts = append(cuts, c)
		}
		net := &Network{Nodes: make([]*Router, total)}
		net.SetShardCuts(cuts)
		b := net.shardBounds(n)
		if len(b) != n+1 || b[0] != 0 || b[n] != total {
			t.Fatalf("N=%d n=%d cuts=%v: bounds %v do not span [0, %d]", total, n, cuts, b, total)
		}
		nonEmpty := 0
		for w := 0; w < n; w++ {
			if b[w] > b[w+1] || (w > 0 && b[w]%64 != 0) {
				t.Fatalf("N=%d n=%d cuts=%v: bounds %v not ascending on word boundaries", total, n, cuts, b)
			}
			if b[w] < b[w+1] {
				nonEmpty++
			}
		}
		if want := min(n, (total+63)/64); nonEmpty != want {
			t.Fatalf("N=%d n=%d cuts=%v: bounds %v have %d non-empty shards, want %d", total, n, cuts, b, nonEmpty, want)
		}
	}
}

// TestParallelFastForwardSkewedLoad: when only the last mesh row holds
// queued work, a fast-forwarding RunWith on two shards stays bit-identical
// to one shard — quiescence jumps with an idle shard included.
func TestParallelFastForwardSkewedLoad(t *testing.T) {
	const side = 16
	run := func(workers int) map[uint64]int64 {
		net := buildXYMesh(t, side)
		net.SetShardCuts(rowCuts(side))
		net.SetWorkers(workers)
		defer net.SetWorkers(0)
		arr := map[uint64]int64{}
		net.Sink = func(p *Packet) { arr[p.ID] = p.ArrivedAt }
		// The last row's nodes exchange bursts starting at cycle 50; the
		// rest idle.
		first := side * (side - 1)
		for src := first; src < side*side; src++ {
			for k := 0; k < 8; k++ {
				dst := first + (src-first+k+1)%side
				net.Offer(net.NewPacket(NodeID(src), NodeID(dst), 4, int64(50+29*k)))
			}
		}
		if err := net.RunWith(800, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := net.CheckCredits(); err != nil {
			t.Fatal(err)
		}
		return arr
	}
	want := run(1)
	got := run(2)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("deliveries differ: %d vs %d", len(got), len(want))
	}
	for id, at := range want {
		if got[id] != at {
			t.Fatalf("packet %d arrived at %d parallel, %d sequential", id, got[id], at)
		}
	}
}

// TestParallelStepSaturatedZeroAlloc: a saturated parallel step allocates
// nothing in steady state — the scratch merge, wake lists and worker
// dispatch all reuse preallocated storage.
func TestParallelStepSaturatedZeroAlloc(t *testing.T) {
	net := buildXYMesh(t, 16)
	net.SetShardCuts(rowCuts(16))
	net.SetWorkers(2)
	defer net.SetWorkers(0)
	for net.Now < 3000 {
		saturateXYMesh(net, net.Now)
		net.Step()
	}
	avg := testing.AllocsPerRun(200, func() {
		saturateXYMesh(net, net.Now)
		net.Step()
	})
	if avg != 0 {
		t.Errorf("saturated parallel step allocates %.2f objects per cycle, want 0", avg)
	}
}

// TestOneShardStartsNothing: a finalized network is one shard stepped by
// its caller — no worker set (the only object that carries a finalizer)
// and no goroutine, across Finalize and a thousand loaded steps.
func TestOneShardStartsNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	net := buildXYMesh(t, 8)
	for net.Now < 1000 {
		saturateXYMesh(net, net.Now)
		net.Step()
	}
	if p := net.shards; len(p.sh) != 1 || p.ws != nil {
		t.Errorf("finalized network has %d shards and worker set %v, want 1 and nil", len(p.sh), p.ws)
	}
	// Workers of earlier tests may still be exiting, so the count can fall.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d across Finalize and 1000 steps", before, after)
	}
	if net.PacketsDelivered() == 0 {
		t.Error("no traffic delivered")
	}
}

// TestReshardMidRun: re-cutting with flits in flight (in link pipelines,
// staged in rings, parked on credits) — one shard to four, a SetShardCuts
// re-cut at four, back to one — moves ownership only: credits stay
// conserved and every packet arrives at the cycle it does on a network
// that never left one shard.
func TestReshardMidRun(t *testing.T) {
	const side, cycles = 16, 1200
	_, want := runSaturatedMesh(t, side, 1, nil, cycles)

	net := buildXYMesh(t, side)
	net.SetShardCuts(rowCuts(side))
	got := map[uint64]int64{}
	net.Sink = func(p *Packet) { got[p.ID] = p.ArrivedAt }
	for net.Now < cycles {
		switch net.Now {
		case 300:
			net.SetWorkers(4)
		case 500:
			before := net.shards
			net.SetShardCuts(nil)
			if net.shards == before || net.InFlightFlits() == 0 {
				t.Fatal("SetShardCuts on a sharded network did not re-cut with flits in flight")
			}
			if err := net.CheckCredits(); err != nil {
				t.Fatalf("after SetShardCuts mid-run: %v", err)
			}
		case 700:
			if net.InFlightFlits() == 0 {
				t.Fatal("nothing in flight at the re-cut")
			}
			net.SetWorkers(0)
			if err := net.CheckCredits(); err != nil {
				t.Fatalf("after SetWorkers(0) mid-run: %v", err)
			}
		}
		saturateXYMesh(net, net.Now)
		net.Step()
	}
	if err := net.CheckCredits(); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("%d deliveries vs %d on one shard throughout", len(got), len(want))
	}
	for id, at := range want {
		if got[id] != at {
			t.Fatalf("packet %d arrived at %d, %d on one shard throughout", id, got[id], at)
		}
	}
}

// TestAutoShardsContended: the caller judges a window contended when more
// than half of its dispatches left its poll credit negative; an
// automatically sharded network then drops to one shard at the end of that
// load window and stays there through saturated windows that would
// otherwise promote it, with every packet still arriving at the cycle it
// does on one shard throughout, while a pinned count is kept.
func TestAutoShardsContended(t *testing.T) {
	b := &barrier{}
	for _, sunk := range []int{contentionWindow / 2, contentionWindow/2 + 1} {
		for i := 0; i < contentionWindow; i++ {
			b.callerCredit = 1
			if i < sunk {
				b.callerCredit = -1
			}
			b.tally()
		}
		if want := sunk > contentionWindow/2; b.contended != want {
			t.Errorf("%d of %d dispatches with a negative credit: contended %v, want %v", sunk, contentionWindow, b.contended, want)
		}
	}

	// The verdict lands in the first load window and is read at its end,
	// before the barrier's own first verdict; two saturated windows follow.
	const side, verdict, cycles = 16, 100, 3 * loadWindow
	_, want := runSaturatedMesh(t, side, 1, nil, cycles)
	for _, pinned := range []bool{false, true} {
		net := buildXYMesh(t, side)
		t.Cleanup(func() { net.SetWorkers(0) })
		net.SetWorkers(2)
		got := map[uint64]int64{}
		net.Sink = func(p *Packet) { got[p.ID] = p.ArrivedAt }
		most := 0
		for net.Now < cycles {
			saturateXYMesh(net, net.Now)
			if net.Now == verdict {
				if !pinned {
					net.Cfg.Workers = 0 // as if Finalize had picked two
				}
				net.shards.ws.b.contended = true
			}
			if net.Step(); net.Now > loadWindow {
				most = max(most, net.Workers())
			}
		}
		if wantShards := map[bool]int{false: 1, true: 2}[pinned]; most != wantShards {
			t.Errorf("pinned=%v: up to %d shards in the saturated windows after a contended one, want %d", pinned, most, wantShards)
		}
		if err := net.CheckCredits(); err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("pinned=%v: %d deliveries vs %d on one shard throughout", pinned, len(got), len(want))
		}
		for id, at := range want {
			if got[id] != at {
				t.Fatalf("pinned=%v: packet %d arrived at %d, %d on one shard throughout", pinned, id, got[id], at)
			}
		}
	}
}

// TestWorkersReleased: a finalized network that ever ran on the sharded
// stepper must cost nothing once it is dropped — its memory is collected
// and its worker goroutines exit — whether or not SetWorkers(0) was called
// first, and whether its shards were asked for or picked by Finalize. No
// finalizer is set on a Network here: it is self-cyclic through its
// closures, so one would itself make it immortal.
func TestWorkersReleased(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	run := func() *Network {
		net := buildXYMesh(t, 16)
		net.SetWorkers(2)
		for net.Now < 40 {
			saturateXYMesh(net, net.Now)
			net.Step()
		}
		return net
	}

	goroutines := runtime.NumGoroutine()
	base := heap()
	one := run()
	size := heap() - base
	one.SetWorkers(0)
	one = nil

	for i := 0; i < 8; i++ {
		net := run()
		if i%2 == 0 {
			net.SetWorkers(0)
		}
	}
	// Auto-sharded: two shards wherever the process has two CPUs.
	auto := buildXYMesh(t, 32)
	for auto.Now < 40 {
		saturateXYMesh(auto, auto.Now)
		auto.Step()
	}
	if want := min(2, cpus()); auto.Workers() != want {
		t.Fatalf("1,024-node mesh auto-sharded to %d, want %d", auto.Workers(), want)
	}
	auto = nil

	// Finalizers run on their own goroutine after the collection that finds
	// the workerSet unreachable, so poll collections against a deadline.
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, g := heap(), runtime.NumGoroutine()
		if h <= base+size && g <= goroutines {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after dropping 10 networks (the first %d KB): heap %d KB over baseline, %d goroutines over baseline",
				size>>10, (int64(h)-int64(base))>>10, g-goroutines)
		}
		runtime.Gosched()
	}
}
