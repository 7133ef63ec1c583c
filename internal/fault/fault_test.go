package fault

import (
	"math"
	"testing"

	"heteroif/internal/core"
	"heteroif/internal/network"
	"heteroif/internal/network/netbench"
)

func TestPerFlit(t *testing.T) {
	if got := PerFlit(0, 64); got != 0 {
		t.Fatalf("PerFlit(0) = %v", got)
	}
	if got := PerFlit(2, 64); got != 1 {
		t.Fatalf("PerFlit(>=1) = %v, want 1", got)
	}
	// Small-BER regime: p ≈ ber × bits.
	if got, want := PerFlit(1e-6, 64), 64e-6; math.Abs(got-want)/want > 1e-3 {
		t.Fatalf("PerFlit(1e-6, 64) = %v, want ≈%v", got, want)
	}
	if PerFlit(1e-4, 128) <= PerFlit(1e-4, 64) {
		t.Fatal("PerFlit not monotonic in flit width")
	}
}

// TestIntegrityCheckerReportsDuplicate: a packet ID delivered twice is
// reported, across the bitset's growth (IDs are dense, so it grows by
// words as deliveries come in).
func TestIntegrityCheckerReportsDuplicate(t *testing.T) {
	net, err := network.New(network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	net.AddNodes(2)
	chk := NewIntegrityChecker(net)
	var last *network.Packet
	for i := 0; i < 200; i++ {
		last = net.NewPacket(0, 1, 1, 0)
		net.Sink(last)
	}
	if err := chk.Check(net); err != nil {
		t.Fatalf("clean deliveries flagged: %v", err)
	}
	net.Sink(last)
	if err := chk.Check(net); err == nil || err.Error() != "fault: 1 duplicate packet deliveries" {
		t.Fatalf("duplicate delivery of packet %d reported as %v", last.ID, err)
	}
}

// TestHookEventComposition: scripted events gate on their interval; Burst
// raises the corruption probability to P, Down kills the wire, and a clean
// hook never draws from its RNG (zero-draw skip keeps clean cycles free).
func TestHookEventComposition(t *testing.T) {
	h := &hook{rng: Split(1, DomainLink, 0), events: []Event{
		{Kind: EventBurst, From: 10, To: 20, P: 1},
		{Kind: EventDown, From: 30, To: 40},
		{Kind: EventDegrade, From: 50, To: -1, P: 1},
	}}
	for _, tc := range []struct {
		now          int64
		corrupt, dwn bool
	}{
		{5, false, false},   // nothing active
		{10, true, false},   // burst, P=1 → certain corruption
		{19, true, false},   // burst still active (half-open interval)
		{20, false, false},  // burst over
		{35, false, true},   // down window
		{40, false, false},  // down over
		{50, true, false},   // permanent degrade (To < 0)
		{9999, true, false}, // still degraded
	} {
		if got := h.Down(tc.now); got != tc.dwn {
			t.Fatalf("Down(%d) = %v, want %v", tc.now, got, tc.dwn)
		}
		if got := h.Corrupt(tc.now); got != tc.corrupt {
			t.Fatalf("Corrupt(%d) = %v, want %v", tc.now, got, tc.corrupt)
		}
	}
}

// TestSiteHookFiltering: a site hook sees only the events addressed to it,
// and clean sites get no hook (hence no retry machinery) at all.
func TestSiteHookFiltering(t *testing.T) {
	fc := Config{Events: []Event{
		{Kind: EventDown, Link: 3, Phy: PhyLink, From: 0, To: -1},
		{Kind: EventDown, Link: -1, Phy: PhySerial, From: 0, To: -1},
	}}
	if h := siteHook(fc, 1, 3, PhyLink, 0, 64); h == nil || !h.Down(0) {
		t.Fatal("link 3 did not receive its scripted event")
	}
	if h := siteHook(fc, 1, 4, PhyLink, 0, 64); h != nil {
		t.Fatal("link 4 received an event addressed to link 3")
	}
	if h := siteHook(fc, 1, 9, PhySerial, 0, 64); h == nil || !h.Down(0) {
		t.Fatal("wildcard serial-PHY event did not reach link 9's serial PHY")
	}
	if h := siteHook(fc, 1, 9, PhyParallel, 0, 64); h != nil {
		t.Fatal("serial-PHY event leaked onto the parallel PHY")
	}
	if h := siteHook(Config{}, 1, 0, PhyLink, 1e-3, 64); h == nil {
		t.Fatal("nonzero BER produced no hook")
	}
}

// TestSiteRNGLazy: a faulted site seeds its stream on its first draw, not
// when it is armed, and then draws exactly what an eagerly seeded
// Split(seed, domain, index) stream would.
func TestSiteRNGLazy(t *testing.T) {
	fc := Config{SerialBER: 1e-2}
	idle := siteHook(fc, 7, 9, PhySerial, fc.SerialBER, 64).(*hook)
	for now := int64(0); now < 1000; now++ {
		idle.Down(now)
	}
	if idle.rng != nil {
		t.Fatal("a site that carried no flit seeded its source")
	}

	h := siteHook(fc, 7, 9, PhySerial, fc.SerialBER, 64).(*hook)
	eager := Split(7, DomainPHY, uint64(2*9+PhySerial))
	p := PerFlit(fc.SerialBER, 64)
	corrupted := 0
	for i := int64(0); i < 1000; i++ {
		want := eager.Float64() < p
		if got := h.Corrupt(i); got != want {
			t.Fatalf("draw %d: lazy stream says %v, eager stream %v", i, got, want)
		}
		if want {
			corrupted++
		}
	}
	if corrupted == 0 || corrupted == 1000 {
		t.Fatalf("%d of 1000 draws corrupted: the comparison saw one outcome only", corrupted)
	}
}

// TestAttachArmsOnlyFaultedSites: Attach must leave clean sites untouched
// (zero-cost-when-disabled) and arm exactly the configured ones, including
// per-PHY retry behind hetero-PHY adapters.
func TestAttachArmsOnlyFaultedSites(t *testing.T) {
	build := func() (*network.Network, *network.Link, *network.Link, *core.HeteroPHYAdapter) {
		cfg := network.DefaultConfig()
		net, err := network.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.AddNodes(2)
		serial := net.Connect(network.KindSerial, 0, 1)
		par := net.Connect(network.KindParallel, 1, 0)
		hl := net.Connect(network.KindHeteroPHY, 0, 1)
		ad := core.NewHeteroPHYAdapter(&net.Cfg, core.Balanced{})
		net.SetAdapter(hl, ad)
		return net, serial, par, ad
	}

	net, serial, par, ad := build()
	Attach(net, Config{})
	if serial.Retry() != nil || par.Retry() != nil || ad.SerialRetry() != nil || ad.ParallelRetry() != nil {
		t.Fatal("zero-value Config armed retry machinery")
	}

	net, serial, par, ad = build()
	Attach(net, Config{SerialBER: 1e-3})
	if serial.Retry() == nil {
		t.Fatal("serial link not armed by SerialBER")
	}
	if par.Retry() != nil || ad.ParallelRetry() != nil {
		t.Fatal("SerialBER armed a parallel site")
	}
	if ad.SerialRetry() == nil {
		t.Fatal("adapter serial PHY not armed by SerialBER")
	}
	if s := Summarize(net); s.Sites != 2 {
		t.Fatalf("Summarize counted %d sites, want 2", s.Sites)
	}
}

// TestFaultRunFastForwardOracle is the fault-injected fast-forward oracle:
// with a seeded error model active, RunWith (quiescence skipping enabled)
// must reproduce the cycle-by-cycle run exactly — faults are drawn per
// transmission event, and retry-busy links hold the engine awake. It also
// closes the integrity loop: every injected packet delivered exactly once.
func TestFaultRunFastForwardOracle(t *testing.T) {
	const side, cycles, chunk = 4, 2048, 512
	fc := Config{OnChipBER: 1e-3}

	type arrival struct {
		id       uint64
		arr      int64
		energyPJ float64
	}
	run := func(fastForward bool) ([]arrival, Summary, *network.Network) {
		net := netbench.BuildMesh(side)
		Attach(net, fc)
		chk := NewIntegrityChecker(net)
		var log []arrival
		prev := net.Sink
		net.Sink = func(p *network.Packet) {
			log = append(log, arrival{p.ID, p.ArrivedAt, p.EnergyPJ})
			prev(p)
		}
		sched := &netbench.Schedule{Net: net, Interval: 100, Length: net.Cfg.PacketLength}
		if fastForward {
			for net.Now < cycles {
				if err := net.RunWith(chunk, sched.Drive, sched.NextInjection); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for net.Now < cycles {
				sched.Drive(net.Now)
				net.Step()
			}
		}
		if ok, err := net.Drain(); err != nil || !ok {
			t.Fatalf("drain (fastForward=%v): ok=%v err=%v", fastForward, ok, err)
		}
		if err := chk.Check(net); err != nil {
			t.Fatalf("integrity (fastForward=%v): %v", fastForward, err)
		}
		if err := net.CheckCredits(); err != nil {
			t.Fatalf("credits (fastForward=%v): %v", fastForward, err)
		}
		return log, Summarize(net), net
	}

	refLog, refSum, _ := run(false)
	ffLog, ffSum, _ := run(true)

	if len(refLog) == 0 {
		t.Fatal("no packets delivered — schedule broken")
	}
	if refSum.Corrupted == 0 || refSum.Retransmits == 0 {
		t.Fatalf("BER %v injected no faults: %+v", fc.OnChipBER, refSum.RetryStats)
	}
	if len(ffLog) != len(refLog) {
		t.Fatalf("delivered %d packets fast-forwarded vs %d stepped", len(ffLog), len(refLog))
	}
	for i := range refLog {
		if refLog[i] != ffLog[i] {
			t.Fatalf("arrival %d diverged: stepped %+v, fast-forwarded %+v", i, refLog[i], ffLog[i])
		}
	}
	if refSum != ffSum {
		t.Fatalf("fault summaries diverged:\nstepped        %+v\nfast-forwarded %+v", refSum, ffSum)
	}
}

// TestFaultRunReplayable: two runs with identical seeds are bit-identical;
// changing the fault seed changes the fault realization but never breaks
// delivery integrity.
func TestFaultRunReplayable(t *testing.T) {
	run := func(seed int64) (Summary, int64) {
		net := netbench.BuildMesh(4)
		Attach(net, Config{OnChipBER: 1e-3, Seed: seed})
		chk := NewIntegrityChecker(net)
		sched := &netbench.Schedule{Net: net, Interval: 50, Length: net.Cfg.PacketLength}
		var lastArr int64
		prev := net.Sink
		net.Sink = func(p *network.Packet) { lastArr = p.ArrivedAt; prev(p) }
		if err := net.RunWith(1024, sched.Drive, sched.NextInjection); err != nil {
			t.Fatal(err)
		}
		if ok, err := net.Drain(); err != nil || !ok {
			t.Fatalf("drain: ok=%v err=%v", ok, err)
		}
		if err := chk.Check(net); err != nil {
			t.Fatal(err)
		}
		return Summarize(net), lastArr
	}
	s1, a1 := run(7)
	s2, a2 := run(7)
	if s1 != s2 || a1 != a2 {
		t.Fatalf("same seed diverged: %+v/%d vs %+v/%d", s1, a1, s2, a2)
	}
	s3, _ := run(8)
	if s1.RetryStats == s3.RetryStats {
		t.Fatal("different fault seeds produced identical fault realizations")
	}
}
