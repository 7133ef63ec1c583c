package network

import "testing"

// Micro-benchmarks for the two router hot stages in isolation. The
// whole-engine numbers live in BenchmarkStep; these pin down where a
// regression sits when that number moves.
//
// Both run on a "blockage fixed point": an 8×8 mesh is driven to
// saturation by real stepping, then router ticks run with the link phase
// frozen until credits are exhausted and nothing can move. That state is
// reproducible per iteration — every VC allocation fails (and re-parks
// idempotently), every switch pass finds its ready set parked — so the
// benchmarks measure exactly the per-cycle overhead a saturated router
// pays between grants, the cost the work-list/parking design attacks.

// blockedMesh drives a side×side mesh to the blockage fixed point and
// returns the busy routers plus a tick context bound to the scratch of the
// network's one shard.
func blockedMesh(tb testing.TB, side int) (*Network, []*Router, tickContext) {
	net := buildXYMesh(tb, side)
	for net.Now < 2000 {
		saturateXYMesh(net, net.Now)
		net.Step()
	}
	ctx := tickContext{net: net, scratch: &net.shards.sh[0].scratch}
	for i := 0; i < 64; i++ {
		for _, r := range net.Nodes {
			if r.buffered > 0 {
				r.tickCtx(&ctx)
			}
		}
	}
	before := 0
	for _, r := range net.Nodes {
		before += r.buffered
	}
	for _, r := range net.Nodes {
		if r.buffered > 0 {
			r.tickCtx(&ctx)
		}
	}
	after := 0
	for _, r := range net.Nodes {
		after += r.buffered
	}
	if before != after {
		tb.Fatalf("no blockage fixed point: buffered %d -> %d", before, after)
	}
	var busy []*Router
	for _, r := range net.Nodes {
		if r.buffered > 0 {
			busy = append(busy, r)
		}
	}
	if len(busy) == 0 {
		tb.Fatal("blockage fixed point has no busy routers")
	}
	return net, busy, ctx
}

// BenchmarkAllocate measures the RC+VA retry path: per op, every parked
// input VC in the mesh is returned to the pending set and re-allocated
// (each attempt fails on exhausted credits/held VCs and re-parks). This is
// the retry storm a saturated router would pay every cycle without VA
// parking, and the stage where route memoization and the bitmask VC scan
// live.
func BenchmarkAllocate(b *testing.B) {
	_, busy, ctx := blockedMesh(b, 8)
	type snap struct {
		r    *Router
		pend []uint64
	}
	var snaps []snap
	slots := 0
	for _, r := range busy {
		if r.vaParkedCount == 0 {
			continue
		}
		snaps = append(snaps, snap{r, append([]uint64(nil), r.vaParked...)})
		slots += r.vaParkedCount
	}
	if slots == 0 {
		b.Skip("no parked allocations at the blockage fixed point")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range snaps {
			copy(s.r.allocPend, s.pend)
			s.r.vaStage(&ctx)
		}
	}
	b.ReportMetric(float64(slots), "vaslots/op")
}

// BenchmarkSwitchAlloc measures the switch-allocation pass over every
// saturated router: budget prologue, ready-list scan and round-robin
// advance, with all slots parked on credits — the per-cycle floor the SA
// stage costs a blocked router.
func BenchmarkSwitchAlloc(b *testing.B) {
	_, busy, ctx := blockedMesh(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range busy {
			r.switchAlloc(&ctx)
		}
	}
	b.ReportMetric(float64(len(busy)), "routers/op")
}
