package network

import "testing"

// TestInjectVCChoiceByClass pins the injection-VC choice per traffic class:
// latency-sensitive packets take the highest VC with free space, throughput
// packets the lowest, best-effort the one with the most free space.
func TestInjectVCChoiceByClass(t *testing.T) {
	for _, tc := range []struct {
		class Class
		want  VCID
	}{
		{ClassLatencySensitive, 3}, // highest eligible (VC0 is full)
		{ClassThroughput, 1},       // lowest eligible
		{ClassBestEffort, 2},       // most free space
	} {
		net, _ := twoNodeNet(t, KindOnChip, func(c *Config) { c.VCs = 4 })
		r := net.Nodes[0]
		in := &r.In[r.InjectPort]
		// Fill the injection buffers to the free-space pattern [0, 3, 5, 2].
		for v, free := range []int{0, 3, 5, 2} {
			buf := &in.VCs[v].Buf
			for buf.Free() > free {
				buf.Push(Flit{})
			}
		}
		p := net.NewPacket(0, 1, 4, 0)
		p.Class = tc.class
		net.Offer(p)
		net.injectNode(0, &net.shards.sh[0].scratch)
		s := &net.sources[0]
		if s.cur != p {
			t.Fatalf("%v: packet not picked up by injectNode", tc.class)
		}
		if s.curVC != tc.want {
			t.Errorf("%v: injected into VC %d, want VC %d", tc.class, s.curVC, tc.want)
		}
	}
}

// blockedNet builds a two-node net whose only path 0→1 can never allocate
// an output VC (no credits, all VCs held), then offers one packet: its
// flits enter the injection buffer (flitsIn > flitsOut) and nothing ever
// moves again — the canonical watchdog scenario.
func blockedNet(t *testing.T) *Network {
	t.Helper()
	net, _ := twoNodeNet(t, KindOnChip, func(c *Config) { c.DeadlockThreshold = 100 })
	r := net.Nodes[0]
	for i := range r.Out {
		out := &r.Out[i]
		if out.Link == nil || out.Link.Dst != 1 {
			continue
		}
		out.Credits = [maxVCs]int32{}
		out.heldMask = out.vcLimit
	}
	net.Offer(net.NewPacket(0, 1, 16, 0))
	return net
}

// TestDeadlockWatchdogUnderFastForward: a quiescent-but-undelivered network
// (flitsIn > flitsOut, moved == 0) must never be fast-forwarded — RunWith
// has to trip DeadlockAt at exactly the same cycle as the plain Step loop.
func TestDeadlockWatchdogUnderFastForward(t *testing.T) {
	ref := blockedNet(t)
	for i := 0; i < 2000 && ref.DeadlockAt < 0; i++ {
		ref.Step()
	}
	if ref.DeadlockAt < 0 {
		t.Fatal("reference Step loop never tripped the watchdog")
	}

	ff := blockedNet(t)
	err := ff.RunWith(2000, nil, func(now int64) int64 { return -1 })
	if err == nil {
		t.Fatal("RunWith returned no deadlock error")
	}
	if ff.DeadlockAt != ref.DeadlockAt {
		t.Errorf("fast-forward engine tripped DeadlockAt=%d, Step loop at %d", ff.DeadlockAt, ref.DeadlockAt)
	}
}

// TestDrainFastForwardsFutureOffers: an idle network holding only a
// future-timestamped packet must skip straight to its CreatedAt and still
// deliver it.
func TestDrainFastForwardsFutureOffers(t *testing.T) {
	net, _ := twoNodeNet(t, KindOnChip, nil)
	var arrivedAt int64 = -1
	net.Sink = func(p *Packet) { arrivedAt = p.ArrivedAt }
	net.Offer(net.NewPacket(0, 1, 4, 500))
	ok, err := net.Drain()
	if err != nil || !ok {
		t.Fatalf("drain: ok=%v err=%v", ok, err)
	}
	if arrivedAt < 500 {
		t.Fatalf("packet arrived at %d, before its CreatedAt 500", arrivedAt)
	}
	if arrivedAt > 540 {
		t.Errorf("packet arrived at %d, far beyond CreatedAt 500 — skip overshot?", arrivedAt)
	}
	if err := net.CheckCredits(); err != nil {
		t.Error(err)
	}
}

// TestStepIdleZeroAllocs asserts the steady-state guarantee the CI bench
// smoke job checks: once a network is idle, Step allocates nothing.
func TestStepIdleZeroAllocs(t *testing.T) {
	net, _ := twoNodeNet(t, KindOnChip, nil)
	// Exercise the engine once so every scratch slice reaches its
	// steady-state capacity, then let it drain fully.
	net.Offer(net.NewPacket(0, 1, 16, 0))
	if err := net.Run(200, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Quiescent() || !net.idle() {
		t.Fatal("network did not drain")
	}
	if avg := testing.AllocsPerRun(1000, func() { net.Step() }); avg != 0 {
		t.Errorf("idle Step allocates %.2f times per cycle, want 0", avg)
	}
}
