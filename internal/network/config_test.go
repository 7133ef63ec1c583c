package network

import (
	"strings"
	"testing"
)

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	checks := []struct {
		name      string
		got, want int
	}{
		{"packet length", cfg.PacketLength, 16},
		{"VCs per link", cfg.VCs, 2},
		{"on-chip bandwidth", cfg.OnChipBandwidth, 2},
		{"parallel bandwidth", cfg.ParallelBandwidth, 2},
		{"parallel delay", cfg.ParallelDelay, 5},
		{"serial bandwidth", cfg.SerialBandwidth, 4},
		{"serial delay", cfg.SerialDelay, 20},
		{"on-chip buffer", cfg.OnChipBufPerVC, 32},
		{"interface buffer", cfg.IfaceBufPerVC, 64},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (Table 2)", c.name, c.got, c.want)
		}
	}
	if cfg.SimCycles != 100000 || cfg.WarmupCycles != 10000 {
		t.Errorf("window %d/%d, want 100000/10000 (Table 2)", cfg.SimCycles, cfg.WarmupCycles)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestHalvedConfig(t *testing.T) {
	cfg := DefaultConfig().Halved()
	if cfg.ParallelBandwidth != 1 || cfg.SerialBandwidth != 2 {
		t.Errorf("halved bandwidths = %d/%d, want 1/2", cfg.ParallelBandwidth, cfg.SerialBandwidth)
	}
	// Halving twice clamps at 1.
	cfg = cfg.Halved().Halved()
	if cfg.ParallelBandwidth != 1 || cfg.SerialBandwidth != 1 {
		t.Errorf("repeated halving = %d/%d, want 1/1", cfg.ParallelBandwidth, cfg.SerialBandwidth)
	}
}

func TestConfigValidateRejectsBadValues(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.PacketLength = 0 },
		func(c *Config) { c.PacketLength = MaxPacketLength + 1 }, // flit Seq is 16-bit
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.VCs = 9 },
		func(c *Config) { c.OnChipBandwidth = 0 },
		func(c *Config) { c.SerialDelay = -1 },
		func(c *Config) { c.OnChipBufPerVC = 0 },
		func(c *Config) { c.SimCycles = 5; c.WarmupCycles = 10 },
		func(c *Config) { c.Workers = -3 },
		// Each of these built and then panicked or delivered nothing.
		func(c *Config) { c.AdapterQueueDepth = -4 },
		func(c *Config) { c.AdapterQueueDepth = 0 },
		func(c *Config) { c.InjectionBandwidth = 0 },
		func(c *Config) { c.EjectionBandwidth = 0 },
		// Each of these built and ran: a zero flit width charged 0 pJ to
		// every packet.
		func(c *Config) { c.FlitBits = 0 },
		func(c *Config) { c.OnChipPJPerBit = -0.1 },
		func(c *Config) { c.ParallelPJPerBit = -1 },
		func(c *Config) { c.SerialPJPerBit = -2.4 },
		func(c *Config) { c.RouterPJPerFlit = -1 },
		func(c *Config) { c.WarmupCycles = -1 },
		func(c *Config) { c.DrainCycles = -1 },
		func(c *Config) { c.DeadlockThreshold = -1 },
		// 16-bit adapter sequence numbers: 2 VCs × 16,384 buffered flits,
		// then the same through the credit-round-trip enlargement.
		func(c *Config) { c.IfaceBufPerVC = 1 << 14 },
		func(c *Config) { c.SerialDelay = 1400 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Values the engine's narrow fields cannot hold; the error names the
	// limit.
	for _, tc := range []struct {
		mutate func(*Config)
		limit  string
	}{
		// 16-bit ring cursors: a configured depth, then a credit round trip.
		{func(c *Config) { c.OnChipBufPerVC = MaxRingDepth + 1 }, "65535"},
		{func(c *Config) { c.OnChipDelay = 20000 }, "65535"},
		// 16-bit delay-line heads.
		{func(c *Config) { c.OnChipDelay = MaxRingDepth + 1; c.OnChipBufPerVC = 1 }, "65535"},
		// Packed delay-line runs count at most MaxLinkBandwidth flits, on
		// any link kind (a hetero-PHY link carries both PHYs' bandwidth),
		// and an input port's drain budget shares the bound.
		{func(c *Config) { c.OnChipBandwidth = MaxLinkBandwidth + 1 }, "8191"},
		{func(c *Config) { c.SerialBandwidth = MaxLinkBandwidth + 1 }, "8191"},
		{func(c *Config) { c.ParallelBandwidth, c.SerialBandwidth = 4096, 4096 }, "8191"},
		{func(c *Config) { c.InjectionBandwidth = MaxLinkBandwidth + 1 }, "8191"},
	} {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.limit) {
			t.Errorf("%+v: Validate = %v, want an error naming %s", cfg, err, tc.limit)
		}
	}
}

func TestBufPerVCCoversCreditRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	for _, k := range []LinkKind{KindOnChip, KindParallel, KindSerial, KindHeteroPHY, KindLocal} {
		rtt := 2 * cfg.Delay(k) * cfg.Bandwidth(k)
		if got := cfg.BufPerVC(k); got < rtt {
			t.Errorf("%v buffer %d does not cover credit round trip %d", k, got, rtt)
		}
	}
	// Serial: 2×20×4 = 160 > the Table-2 base of 64.
	if got := cfg.BufPerVC(KindSerial); got != 160 {
		t.Errorf("serial buffer = %d, want 160", got)
	}
	// On-chip: round trip tiny, Table-2 base of 32 wins.
	if got := cfg.BufPerVC(KindOnChip); got != 32 {
		t.Errorf("on-chip buffer = %d, want 32", got)
	}
}

func TestBandwidthAndDelayByKind(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.Bandwidth(KindHeteroPHY); got != 6 {
		t.Errorf("hetero-PHY bandwidth = %d, want parallel+serial = 6", got)
	}
	if got := cfg.Delay(KindHeteroPHY); got != cfg.ParallelDelay {
		t.Errorf("hetero-PHY delay = %d, want parallel delay %d", got, cfg.ParallelDelay)
	}
	if cfg.FlitPJ(KindHeteroPHY) != 0 {
		t.Error("hetero-PHY links must not double-count energy (adapter accounts per PHY)")
	}
	if bits := float64(cfg.FlitBits); cfg.FlitPJ(KindSerial) != 2.4*bits || cfg.FlitPJ(KindParallel) != 1.0*bits {
		t.Error("interface energies should match Sec. 8.3 (1 pJ/bit parallel, 2.4 pJ/bit serial)")
	}
}

func TestKindAndClassStrings(t *testing.T) {
	if KindHeteroPHY.String() != "hetero-phy" || KindOnChip.String() != "on-chip" {
		t.Error("LinkKind strings wrong")
	}
	if ClassInOrder.String() != "in-order" || Class(250).String() == "" {
		t.Error("Class strings wrong")
	}
	if LinkKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}
