package network

import "testing"

// scriptHook is a deterministic TxFault for tests: it corrupts the first
// corruptFirst transmissions it sees and the corruptAt-th (1-based; 0
// corrupts none), and reports the wire down during [downFrom, downTo).
type scriptHook struct {
	corruptFirst int
	corruptAt    int
	downFrom     int64
	downTo       int64
	txs          int
}

func (h *scriptHook) Corrupt(int64) bool {
	h.txs++
	return h.txs <= h.corruptFirst || h.txs == h.corruptAt
}

func (h *scriptHook) Down(now int64) bool {
	return now >= h.downFrom && now < h.downTo
}

// drainPipe ticks the pipe from cycle start until it quiesces (or limit
// cycles pass), recording every delivered flit's Seq and delivery cycle.
func drainPipe(t *testing.T, rp *RetryPipe, start, limit int64) (seqs []uint16, cycles []int64) {
	t.Helper()
	for now := start; now < start+limit; now++ {
		rp.Tick(now, func(f Flit, _ uint32) {
			seqs = append(seqs, f.Seq)
			cycles = append(cycles, now)
		})
		if !rp.Busy() {
			return seqs, cycles
		}
	}
	t.Fatalf("retry pipe still busy after %d cycles", limit)
	return nil, nil
}

// TestRetryErrorFreeMatchesPlainPipeline drives the same flit schedule
// through a plain link and a retry-enabled link with no fault hook, on
// every plain channel kind: the retry machinery must add zero latency and
// identical energy on the error-free path, so the two arrival streams at
// the destination rings are equal.
func TestRetryErrorFreeMatchesPlainPipeline(t *testing.T) {
	type arrival struct {
		cycle int64
		id    uint64
		tx    [energyClasses]uint64
	}
	const flits = 40
	drive := func(g *linkRig) []arrival {
		var got []arrival
		sent := 0
		for g.net.Now < 200 {
			for sent < flits && g.l.FreeSlots() > 0 {
				g.accept(0)
				sent++
			}
			for _, f := range g.advance() {
				p := g.net.Packet(f.P)
				got = append(got, arrival{g.net.Now, p.ID, p.tx})
			}
		}
		return got
	}
	for _, kind := range plainKinds {
		t.Run(kind.String(), func(t *testing.T) {
			plain, reliable := newLinkRig(t, kind), newLinkRig(t, kind)
			reliable.l.EnableRetry(nil, 0, 0, reliable.net.Packets())
			pa, ra := drive(plain), drive(reliable)
			if len(pa) != flits || len(ra) != flits {
				t.Fatalf("delivered %d plain / %d retry flits, want %d", len(pa), len(ra), flits)
			}
			for i := range pa {
				if pa[i] != ra[i] {
					t.Fatalf("arrival %d diverged: plain %+v, retry %+v", i, pa[i], ra[i])
				}
			}
			if st := reliable.l.Retry().Stats; st.Retransmits != 0 || st.Dropped != 0 {
				t.Fatalf("error-free run recorded retransmits/drops: %+v", st)
			}
			if reliable.l.Busy() {
				t.Fatal("retry link still busy after full delivery and ack round trip")
			}
		})
	}
}

// TestRetryDeliversThroughCorruption corrupts the first transmissions and
// checks go-back-N recovery: every flit delivered exactly once, in order.
func TestRetryDeliversThroughCorruption(t *testing.T) {
	hook := &scriptHook{corruptFirst: 3}
	net := testPackets(t)
	rp := NewRetryPipe(2, 3, 0, 0, hook, KindSerial, net.Packets())
	const n = 10
	pkt := net.NewPacket(0, 1, n, 0)
	var seqs []uint16
	next := uint16(0)
	for now := int64(0); now < 400; now++ {
		if now > 0 {
			rp.Tick(now, func(f Flit, _ uint32) { seqs = append(seqs, f.Seq) })
		}
		for next < n && rp.FreeSlots() > 0 {
			rp.Accept(now, Flit{P: pkt.ref, Seq: next}, 0)
			next++
		}
		if next == n && !rp.Busy() {
			break
		}
	}
	if len(seqs) != n {
		t.Fatalf("delivered %d flits, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint16(i) {
			t.Fatalf("out-of-order delivery: position %d got seq %d", i, s)
		}
	}
	st := rp.Stats
	if st.Corrupted != 3 || st.Retransmits == 0 || st.Nacks == 0 {
		t.Fatalf("unexpected stats after corruption recovery: %+v", st)
	}
	if st.Delivered != n || rp.InFlight() != 0 {
		t.Fatalf("delivered=%d inflight=%d, want %d/0", st.Delivered, rp.InFlight(), n)
	}
}

// TestRetryOneCorruptionCostsOneWindow is the retransmission-storm
// regression: a saturated serial pipe with one corrupted transmission must
// nack once and replay at most one window. Nacking every dropped arrival
// rewound the sender once per in-flight cycle, and each rewind's duplicates
// drew nacks of their own, so the storm never ended.
func TestRetryOneCorruptionCostsOneWindow(t *testing.T) {
	const bw, delay, cycles = 4, 20, 4000
	run := func(hook TxFault) (*RetryPipe, int) {
		net := testPackets(t)
		rp := NewRetryPipe(bw, delay, 0, 0, hook, KindSerial, net.Packets())
		pkt := net.NewPacket(0, 1, 1, 0)
		delivered := 0
		for now := int64(0); now < cycles; now++ {
			if now > 0 {
				rp.Tick(now, func(Flit, uint32) { delivered++ })
			}
			for rp.FreeSlots() > 0 {
				rp.Accept(now, Flit{P: pkt.ref}, 0)
			}
		}
		return rp, delivered
	}
	_, clean := run(nil)
	rp, got := run(&scriptHook{corruptAt: 500})
	st := rp.Stats
	if st.Corrupted != 1 || st.Nacks != 1 {
		t.Fatalf("one corruption drew %d nacks (corrupted %d), want 1: %+v", st.Nacks, st.Corrupted, st)
	}
	if st.Retransmits > uint64(rp.window) {
		t.Fatalf("one corruption cost %d retransmissions, more than the %d-flit replay window", st.Retransmits, rp.window)
	}
	if got*100 < clean*98 {
		t.Fatalf("delivered %d flits, want at least 98%% of the error-free %d", got, clean)
	}
}

// TestRetryTimeoutRecoversDownWire kills the wire outright: no arrival, no
// nack — only the TX timeout can recover, and must keep rewinding until the
// outage ends.
func TestRetryTimeoutRecoversDownWire(t *testing.T) {
	hook := &scriptHook{downFrom: 0, downTo: 40}
	net := testPackets(t)
	rp := NewRetryPipe(1, 2, 0, 0, hook, KindSerial, net.Packets())
	rp.Accept(0, Flit{P: net.NewPacket(0, 1, 1, 0).ref}, 0)
	seqs, cycles := drainPipe(t, rp, 1, 400)
	if len(seqs) != 1 {
		t.Fatalf("delivered %d flits, want 1", len(seqs))
	}
	if cycles[0] < hook.downTo {
		t.Fatalf("delivered at cycle %d while the wire was still down (up at %d)", cycles[0], hook.downTo)
	}
	if rp.Stats.Timeouts == 0 {
		t.Fatalf("down-wire recovery without a timeout rewind: %+v", rp.Stats)
	}
	if rp.Stats.Delivered != 1 || rp.Stats.Dropped != 0 {
		t.Fatalf("unexpected stats: %+v", rp.Stats)
	}
}

// TestRetryWindowBackpressure fills the replay window against a dead wire:
// FreeSlots must reach zero (credit backpressure) and nothing may be lost.
func TestRetryWindowBackpressure(t *testing.T) {
	hook := &scriptHook{downFrom: 0, downTo: 1 << 40}
	const window = 4
	net := testPackets(t)
	rp := NewRetryPipe(4, 2, window, 0, hook, KindSerial, net.Packets())
	pkt := net.NewPacket(0, 1, window, 0)
	accepted := 0
	for now := int64(0); now < 100; now++ {
		if now > 0 {
			rp.Tick(now, func(Flit, uint32) { t.Fatal("delivery across a dead wire") })
		}
		for rp.FreeSlots() > 0 {
			rp.Accept(now, Flit{P: pkt.ref, Seq: uint16(accepted)}, 0)
			accepted++
		}
	}
	if accepted != window {
		t.Fatalf("accepted %d flits into a %d-flit window", accepted, window)
	}
	if rp.FreeSlots() != 0 {
		t.Fatalf("FreeSlots %d with a full replay buffer", rp.FreeSlots())
	}
	if rp.InFlight() != window {
		t.Fatalf("InFlight %d, want %d undelivered", rp.InFlight(), window)
	}
}

// TestRetryEnergyPerRetransmission: a flit an adapter PHY's pipe delivered
// on its k-th transmission must be charged k wire traversals, all on its
// packet. The outage case keeps the wire of a Delay-1 pipe at the minimum
// timeout down for 300k cycles, so one flit is sent more often than a
// 16-bit count holds: legitimate input, still charged exactly.
func TestRetryEnergyPerRetransmission(t *testing.T) {
	cfg := DefaultConfig()
	for _, tc := range []struct {
		name  string
		hook  *scriptHook
		delay int
		sends uint64 // 0: whatever the pipe's Stats say, but at least 70,000
	}{
		{"corrupted-twice", &scriptHook{corruptFirst: 2}, 2, 3},
		{"long-outage", &scriptHook{downTo: 300_000}, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := testPackets(t)
			rp := NewRetryPipe(1, tc.delay, 0, 1, tc.hook, KindParallel, net.Packets())
			pkt := net.NewPacket(0, 1, 1, 0)
			rp.Accept(0, Flit{P: pkt.ref, Seq: 0}, 0)
			var got Flit
			n := 0
			for now := int64(1); now < 400_000 && rp.Busy(); now++ {
				rp.Tick(now, func(f Flit, _ uint32) { got = f; n++ })
			}
			if n != 1 {
				t.Fatalf("delivered %d flits, want 1", n)
			}
			want := tc.sends
			if want == 0 {
				// One flit, nothing corrupted: the copy that got through
				// is the last one sent.
				if want = rp.Stats.Transmits; want < 70_000 {
					t.Fatalf("outage forced only %d transmissions, want >= 70000", want)
				}
			}
			if rp.Stats.Transmits != want || rp.Stats.Retransmits != want-1 {
				t.Fatalf("unexpected transmit counts: %+v, want %d transmissions", rp.Stats, want)
			}
			if got.P != pkt.ref || pkt.tx != [energyClasses]uint64{KindParallel: want} {
				t.Fatalf("packet charged %v after %d transmissions", pkt.tx, want)
			}
			pkt.settleEnergy(&cfg)
			if e := float64(want) * cfg.FlitPJ(KindParallel); pkt.EnergyIfacePJ != e || pkt.EnergyPJ != e+cfg.RouterPJPerFlit {
				t.Fatalf("settled %v pJ interface, %v total after %d transmissions, want %v and %v",
					pkt.EnergyIfacePJ, pkt.EnergyPJ, want, e, e+cfg.RouterPJPerFlit)
			}
		})
	}
}

// TestRetrySequenceWraparound starts the lsn space three short of the
// 32-bit wrap and injects corruption so retransmissions straddle the wrap:
// in-order exactly-once delivery must survive it.
func TestRetrySequenceWraparound(t *testing.T) {
	hook := &scriptHook{corruptFirst: 2}
	net := testPackets(t)
	rp := NewRetryPipe(2, 2, 0, 0, hook, KindSerial, net.Packets())
	start := ^uint32(0) - 2
	rp.base, rp.next, rp.expected = start, start, start

	const n = 8
	pkt := net.NewPacket(0, 1, n, 0)
	var seqs []uint16
	next := uint16(0)
	for now := int64(0); now < 400; now++ {
		if now > 0 {
			rp.Tick(now, func(f Flit, _ uint32) { seqs = append(seqs, f.Seq) })
		}
		for next < n && rp.FreeSlots() > 0 {
			rp.Accept(now, Flit{P: pkt.ref, Seq: next}, 0)
			next++
		}
		if next == n && !rp.Busy() {
			break
		}
	}
	if len(seqs) != n {
		t.Fatalf("delivered %d flits across the lsn wrap, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint16(i) {
			t.Fatalf("wraparound broke ordering: position %d got seq %d", i, s)
		}
	}
	if rp.expected != start+n {
		t.Fatalf("RX expected counter %d, want %d", rp.expected, start+n)
	}
}

// TestRetryFailoverDrainExactlyOnce evicts flits stuck behind a dead wire
// and checks the pipe resynchronizes: evicted flits come out in acceptance
// order, no straggler ever delivers a second copy, and the pipe works again
// once the wire heals.
func TestRetryFailoverDrainExactlyOnce(t *testing.T) {
	hook := &scriptHook{downFrom: 0, downTo: 1 << 40}
	net := testPackets(t)
	rp := NewRetryPipe(2, 2, 0, 0, hook, KindSerial, net.Packets())
	pkt := net.NewPacket(0, 1, 5, 0)
	next := uint16(0)
	for now := int64(0); now < 6; now++ {
		if now > 0 {
			rp.Tick(now, func(Flit, uint32) { t.Fatal("delivery across a dead wire") })
		}
		for next < 5 && rp.FreeSlots() > 0 {
			rp.Accept(now, Flit{P: pkt.ref, Seq: next}, 0)
			next++
		}
	}
	var rescued []uint16
	if got := rp.FailoverDrain(func(f Flit, _ uint32) { rescued = append(rescued, f.Seq) }); got != 5 {
		t.Fatalf("FailoverDrain evicted %d flits, want 5", got)
	}
	for i, s := range rescued {
		if s != uint16(i) {
			t.Fatalf("rescue order broken: position %d got seq %d", i, s)
		}
	}
	if rp.Busy() || rp.InFlight() != 0 {
		t.Fatalf("pipe not clean after drain: busy=%v inflight=%d", rp.Busy(), rp.InFlight())
	}
	if rp.Stats.Evicted != 5 {
		t.Fatalf("Evicted %d, want 5", rp.Stats.Evicted)
	}

	// Wire heals; the resynchronized pipe must deliver new traffic normally.
	hook.downTo = 0
	rp.Accept(10, Flit{P: pkt.ref, Seq: 99}, 0)
	seqs, _ := drainPipe(t, rp, 11, 100)
	if len(seqs) != 1 || seqs[0] != 99 {
		t.Fatalf("post-drain delivery %v, want [99]", seqs)
	}
}

// TestRetryLinkStaysAwake is the wake-list regression for quiescence
// fast-forward: a retry link holding a pending retransmission must stay on
// the engine's wake list, so RunWith (fast-forward enabled) delivers the
// packet at exactly the cycle a cycle-by-cycle run does, with credits
// conserved — instead of stranding the flit and tripping the watchdog.
func TestRetryLinkStaysAwake(t *testing.T) {
	run := func(fastForward bool) (*Network, int64) {
		net, l := twoNodeNet(t, KindSerial, nil)
		l.EnableRetry(&scriptHook{corruptFirst: 3}, 0, 0, net.Packets())
		arrived := int64(-1)
		net.Sink = func(p *Packet) { arrived = p.ArrivedAt }
		net.Offer(net.NewPacket(0, 1, 16, 0))
		var err error
		if fastForward {
			err = net.RunWith(600, nil, nil)
		} else {
			err = net.Run(600, func(int64) {}) // non-nil drive, nil next: no skipping
		}
		if err != nil {
			t.Fatalf("fastForward=%v: %v", fastForward, err)
		}
		if arrived < 0 {
			t.Fatalf("fastForward=%v: packet never delivered", fastForward)
		}
		if err := net.CheckCredits(); err != nil {
			t.Fatalf("fastForward=%v: %v", fastForward, err)
		}
		return net, arrived
	}
	refNet, refArr := run(false)
	ffNet, ffArr := run(true)
	if refArr != ffArr {
		t.Fatalf("fast-forward changed delivery cycle: %d vs %d", ffArr, refArr)
	}
	if refNet.Now != ffNet.Now {
		t.Fatalf("clocks diverged: %d vs %d", ffNet.Now, refNet.Now)
	}
	if st := ffNet.Links[0].Retry().Stats; st.Retransmits < 3 {
		t.Fatalf("corruption did not force retransmissions: %+v", st)
	}
}
