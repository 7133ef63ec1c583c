package core

import (
	"testing"

	"heteroif/internal/network"
)

func adapterUnderTest(pol Policy) (*HeteroPHYAdapter, network.Config) {
	cfg := network.DefaultConfig()
	return newTestAdapter(&cfg, pol), cfg
}

// newTestAdapter builds an adapter that charges the packets of testNet.
func newTestAdapter(cfg *network.Config, pol Policy) *HeteroPHYAdapter {
	a := NewHeteroPHYAdapter(cfg, pol)
	a.BindPackets(testNet.Packets())
	return a
}

// runAdapter ticks the adapter, collecting deliveries.
func runAdapter(a *HeteroPHYAdapter, cycles int, inject func(now int64)) []network.Flit {
	var out []network.Flit
	for now := int64(0); now < int64(cycles); now++ {
		a.Tick(now, func(f network.Flit) { out = append(out, f) })
		if inject != nil {
			inject(now)
		}
	}
	return out
}

// TestAdapterZeroLoadLatency: a lone flit accepted right after a tick is
// delivered after exactly the parallel delay (same-cycle issue, Sec. 8.2).
func TestAdapterZeroLoadLatency(t *testing.T) {
	a, cfg := adapterUnderTest(Balanced{})
	pkt := mkPkt(1, network.ClassBestEffort)
	var arrivals []int64
	for now := int64(0); now < 12; now++ {
		a.Tick(now, func(f network.Flit) { arrivals = append(arrivals, now) })
		if now == 0 {
			a.Accept(now, flitOf(pkt, 0, 0))
		}
	}
	if len(arrivals) != 1 {
		t.Fatalf("delivered %d flits, want 1", len(arrivals))
	}
	if got, want := arrivals[0], int64(cfg.ParallelDelay); got != want {
		t.Fatalf("zero-load adapter latency %d cycles, want %d (parallel delay)", got, want)
	}
}

// TestAdapterBalancedUsesSerialUnderLoad: saturating the adapter engages
// the serial PHY (balanced policy threshold), and total throughput exceeds
// the parallel PHY alone.
func TestAdapterBalancedUsesSerialUnderLoad(t *testing.T) {
	a, cfg := adapterUnderTest(Balanced{})
	pkt := mkPkt(1<<20, network.ClassBestEffort)
	seq := int32(0)
	out := runAdapter(a, 200, func(now int64) {
		for a.FreeSlots() > 0 {
			a.Accept(now, flitOf(pkt, int(seq), 0))
			seq++
		}
	})
	if a.SerialFlits() == 0 {
		t.Fatal("balanced policy never engaged the serial PHY under saturation")
	}
	perCycle := float64(len(out)) / 200
	if perCycle <= float64(cfg.ParallelBandwidth) {
		t.Fatalf("throughput %.2f flits/cycle does not exceed the parallel PHY alone (%d)", perCycle, cfg.ParallelBandwidth)
	}
}

// TestAdapterBalancedIssueRule pins the Sec. 7.3 issue rule on the adapter
// at the synthesized TX widths (1 parallel + 2 serial, 16-deep queue): one
// Tick over a queue pre-filled to occupancy q. The Balanced doc says why
// q = 8 and 9 differ from the synthesized control.
func TestAdapterBalancedIssueRule(t *testing.T) {
	cfg := network.DefaultConfig().Halved()
	cfg.AdapterQueueDepth = 16
	for _, tc := range []struct {
		q, parallel, serial int
	}{
		{0, 0, 0},
		{1, 1, 0}, {2, 1, 0}, {3, 1, 0}, {4, 1, 0},
		{5, 1, 0}, {6, 1, 0}, {7, 1, 0}, {8, 1, 0},
		{9, 1, 1},
		{10, 1, 2}, {11, 1, 2}, {12, 1, 2}, {13, 1, 2},
		{14, 1, 2}, {15, 1, 2}, {16, 1, 2},
	} {
		a := newTestAdapter(&cfg, Balanced{})
		a.phys[PHYParallel].budget, a.phys[PHYSerial].budget = 0, 0
		pkt := mkPkt(tc.q, network.ClassBestEffort)
		for i := 0; i < tc.q; i++ {
			a.Accept(0, flitOf(pkt, int(i), 0))
		}
		a.Tick(1, func(network.Flit) {})
		if p, s := a.ParallelFlits(), a.SerialFlits(); p != uint64(tc.parallel) || s != uint64(tc.serial) {
			t.Errorf("q=%d: issued %d parallel / %d serial, want %d/%d", tc.q, p, s, tc.parallel, tc.serial)
		}
	}
}

// TestAdapterEnergyEfficientNeverUsesSerial: the energy-efficient policy
// leaves the serial PHY dark.
func TestAdapterEnergyEfficientNeverUsesSerial(t *testing.T) {
	a, _ := adapterUnderTest(EnergyEfficient{})
	pkt := mkPkt(1<<20, network.ClassBestEffort)
	seq := int32(0)
	runAdapter(a, 100, func(now int64) {
		for a.FreeSlots() > 0 {
			a.Accept(now, flitOf(pkt, int(seq), 0))
			seq++
		}
	})
	if a.SerialFlits() != 0 {
		t.Fatalf("energy-efficient policy used the serial PHY for %d flits", a.SerialFlits())
	}
	if a.ParallelFlits() == 0 {
		t.Fatal("no traffic flowed at all")
	}
}

// TestAdapterPerformanceFirstFillsBothPHYs at saturation.
func TestAdapterPerformanceFirstFillsBothPHYs(t *testing.T) {
	a, cfg := adapterUnderTest(PerformanceFirst{})
	pkt := mkPkt(1<<20, network.ClassBestEffort)
	seq := int32(0)
	out := runAdapter(a, 200, func(now int64) {
		for a.FreeSlots() > 0 {
			a.Accept(now, flitOf(pkt, int(seq), 0))
			seq++
		}
	})
	want := float64(cfg.ParallelBandwidth + cfg.SerialBandwidth)
	perCycle := float64(len(out)) / 200
	if perCycle < 0.9*want {
		t.Fatalf("performance-first throughput %.2f flits/cycle, want ≈%.0f", perCycle, want)
	}
}

// TestAdapterDeliveryOrderPerVC: flits split across both PHYs arrive back
// in per-VC order.
func TestAdapterDeliveryOrderPerVC(t *testing.T) {
	a, _ := adapterUnderTest(PerformanceFirst{})
	pktA := mkPkt(64, network.ClassBestEffort)
	pktB := mkPkt(64, network.ClassBestEffort)
	seqA, seqB := int32(0), int32(0)
	out := runAdapter(a, 300, func(now int64) {
		for a.FreeSlots() > 0 && (seqA < 64 || seqB < 64) {
			if seqA <= seqB && seqA < 64 {
				a.Accept(now, flitOf(pktA, int(seqA), 0))
				seqA++
			} else if seqB < 64 {
				a.Accept(now, flitOf(pktB, int(seqB), 1))
				seqB++
			} else {
				break
			}
		}
	})
	if len(out) != 128 {
		t.Fatalf("delivered %d flits, want 128", len(out))
	}
	next := map[network.VCID]uint16{}
	for _, f := range out {
		if f.Seq != next[f.VC] {
			t.Fatalf("VC %d delivery out of order: got seq %d want %d", f.VC, f.Seq, next[f.VC])
		}
		next[f.VC]++
	}
	if a.SerialFlits() == 0 || a.ParallelFlits() == 0 {
		t.Fatal("expected both PHYs in use for this test to be meaningful")
	}
}

// TestAdapterInOrderClassGlobalOrder: in-order flits across two VCs are
// delivered in global SN (issue) order — here the acceptance order, since
// in-order flits never bypass the queue head.
func TestAdapterInOrderClassGlobalOrder(t *testing.T) {
	a, _ := adapterUnderTest(PerformanceFirst{})
	pktA := mkPkt(32, network.ClassInOrder)
	pktB := mkPkt(32, network.ClassInOrder)
	seqA, seqB := 0, 0
	var sent []network.Flit
	accept := func(now int64, f network.Flit) {
		a.Accept(now, f)
		sent = append(sent, f)
	}
	out := runAdapter(a, 300, func(now int64) {
		for a.FreeSlots() > 0 && (seqA < 32 || seqB < 32) {
			if seqA <= seqB && seqA < 32 {
				accept(now, flitOf(pktA, seqA, 0))
				seqA++
			} else if seqB < 32 {
				accept(now, flitOf(pktB, seqB, 1))
				seqB++
			} else {
				break
			}
		}
	})
	if len(out) != 64 {
		t.Fatalf("delivered %d flits, want 64", len(out))
	}
	for i, f := range out {
		if f != sent[i] {
			t.Fatalf("in-order sequence broke at %d: delivered %+v, issued %+v", i, f, sent[i])
		}
	}
}

// TestAdapterROBBoundedByEq1: under in-order traffic the reorder buffer
// stays within the Eq. 1 estimate plus the per-cycle arrival slack.
func TestAdapterROBBoundedByEq1(t *testing.T) {
	a, cfg := adapterUnderTest(PerformanceFirst{})
	pkt := mkPkt(1<<20, network.ClassInOrder)
	seq := int32(0)
	runAdapter(a, 400, func(now int64) {
		for a.FreeSlots() > 0 {
			a.Accept(now, flitOf(pkt, int(seq), 0))
			seq++
		}
	})
	eq1 := cfg.ParallelBandwidth * (cfg.SerialDelay - cfg.ParallelDelay)
	slack := cfg.ParallelBandwidth + cfg.SerialBandwidth
	if got := a.MaxROBOccupancy(); got > eq1+slack {
		t.Fatalf("ROB occupancy %d exceeds Eq.1 bound %d (+%d slack)", got, eq1, slack)
	}
	if a.MaxROBOccupancy() == 0 {
		t.Fatal("expected some reordering to occur")
	}
}

// TestAdapterBypassLatencySensitive: a latency-sensitive flit queued behind
// a stalled bulk flit on another VC is issued early through the parallel
// PHY.
func TestAdapterBypassLatencySensitive(t *testing.T) {
	cfg := network.DefaultConfig()
	// Force the head to stall: throughput-class head wants serial, but we
	// use a policy where serial budget is consumed; simplest: energy-
	// efficient policy with zero parallel budget is impossible, so instead
	// saturate the parallel PHY with the bulk queue and watch the bypass
	// flit overtake queue positions.
	a := newTestAdapter(&cfg, EnergyEfficient{})
	bulk := mkPkt(1<<20, network.ClassThroughput)
	urgent := mkPkt(1, network.ClassLatencySensitive)
	// Fill the queue with bulk flits on VC 0 (energy-efficient drains at
	// only 2/cycle), then append the urgent flit on VC 1.
	var arrivals []struct {
		f  network.Flit
		at int64
	}
	seq := int32(0)
	urgentSent := false
	for now := int64(0); now < 40; now++ {
		a.Tick(now, func(f network.Flit) {
			arrivals = append(arrivals, struct {
				f  network.Flit
				at int64
			}{f, now})
		})
		for a.FreeSlots() > 1 {
			a.Accept(now, flitOf(bulk, int(seq), 0))
			seq++
		}
		if now == 3 && !urgentSent {
			a.Accept(now, flitOf(urgent, 0, 1))
			urgentSent = true
		}
	}
	var urgentAt int64 = -1
	var bulkBefore int
	for _, ar := range arrivals {
		if ar.f.P == urgent.Ref() {
			urgentAt = ar.at
			break
		}
		bulkBefore++
	}
	if urgentAt < 0 {
		t.Fatal("urgent flit never delivered")
	}
	// Without bypass it would wait behind the whole backlog; with bypass
	// it arrives within parallel delay + a few cycles of queueing.
	if urgentAt > 3+int64(cfg.ParallelDelay)+4 {
		t.Fatalf("urgent flit arrived at cycle %d (after %d bulk flits) — bypass not working", urgentAt, bulkBefore)
	}
}

// TestPolicyByName covers the registry.
func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"performance-first", "energy-efficient", "balanced", "application-aware"} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestApplicationAwarePolicy routes classes to their PHYs and honors the
// timeout escape hatch.
func TestApplicationAwarePolicy(t *testing.T) {
	pol := ApplicationAware{Timeout: 10}
	st := State{QueueLen: 5, QueueCap: 16, ParallelBudget: 2, SerialBudget: 4}
	bulk := flitOf(mkPkt(16, network.ClassThroughput), 0, 0)
	if phy, ok := pol.Dispatch(&st, bulk); !ok || phy != PHYSerial {
		t.Errorf("throughput class under load got %v/%v, want serial", phy, ok)
	}
	// At true zero load even bulk takes the faster parallel path.
	idle := State{QueueLen: 1, QueueCap: 16, ParallelBudget: 2, SerialBudget: 4}
	if phy, ok := pol.Dispatch(&idle, bulk); !ok || phy != PHYParallel {
		t.Errorf("throughput class at zero load got %v/%v, want parallel", phy, ok)
	}
	urgent := flitOf(mkPkt(1, network.ClassLatencySensitive), 0, 0)
	if phy, ok := pol.Dispatch(&st, urgent); !ok || phy != PHYParallel {
		t.Errorf("latency-sensitive class got %v/%v, want parallel", phy, ok)
	}
	// Timed-out flit with no parallel budget goes to any free PHY.
	st2 := State{QueueLen: 9, QueueCap: 16, ParallelBudget: 0, SerialBudget: 4, Waited: 11}
	if phy, ok := pol.Dispatch(&st2, urgent); !ok || phy != PHYSerial {
		t.Errorf("timed-out flit got %v/%v, want serial fallback", phy, ok)
	}
}
