package network

import "fmt"

// LinkKind classifies a physical channel. It selects bandwidth, delay and
// energy parameters and is the unit at which the routing algorithms reason
// about channel classes (Algorithm 1 distinguishes C_N, C_P, C_S).
type LinkKind uint8

const (
	// KindOnChip is an intra-chiplet NoC wire.
	KindOnChip LinkKind = iota
	// KindParallel is an AIB-like parallel die-to-die interface: low
	// latency, low power, short reach, moderate bandwidth.
	KindParallel
	// KindSerial is a SerDes-like serial die-to-die interface: high
	// bandwidth, long reach, high latency, high power.
	KindSerial
	// KindHeteroPHY is a heterogeneous-PHY interface: one adapter driving
	// a parallel PHY and a serial PHY concurrently (Sec. 3.1/4.2).
	KindHeteroPHY
	// KindLocal is the injection/ejection channel between a node's core
	// and its router.
	KindLocal
)

// String returns the kind name.
func (k LinkKind) String() string {
	switch k {
	case KindOnChip:
		return "on-chip"
	case KindParallel:
		return "parallel"
	case KindSerial:
		return "serial"
	case KindHeteroPHY:
		return "hetero-phy"
	case KindLocal:
		return "local"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Config carries the simulator parameters. The zero value is not useful;
// start from DefaultConfig (Table 2 of the paper).
type Config struct {
	// PacketLength is the default packet length in flits for synthetic
	// traffic (trace-driven packets carry their own lengths).
	PacketLength int

	// VCs is the number of virtual channels per physical channel.
	VCs int

	// Per-kind link bandwidth in flits/cycle and extra propagation delay
	// in cycles. On-chip transmission is 1 cycle; interface kinds add
	// their propagation delay on top of nothing — the delay below is the
	// total link traversal time in cycles.
	OnChipBandwidth   int
	OnChipDelay       int
	ParallelBandwidth int
	ParallelDelay     int
	SerialBandwidth   int
	SerialDelay       int

	// OnChipBufPerVC and IfaceBufPerVC are input buffer depths per VC in
	// flits (Table 2: 32 flits for on-chip buffers and 64 flits for
	// interface buffers; we provision them per VC). Interface buffers are
	// automatically enlarged to cover the credit round trip
	// (bandwidth × 2×delay), the "additional buffer" of Sec. 7.1.
	// Deadlock freedom (Lemma 1, DESIGN.md "Deadlock freedom") assumes
	// virtual cut-through admission with every per-VC buffer at least one
	// packet long. Shallower buffers admit a packet on an empty buffer
	// instead, so it spans several routers as under wormhole admission,
	// and a saturated run can end in the deadlock watchdog.
	OnChipBufPerVC int
	IfaceBufPerVC  int

	// InjectionBandwidth and EjectionBandwidth bound how many flits per
	// cycle a node can source/sink through its local port.
	InjectionBandwidth int
	EjectionBandwidth  int

	// AdapterQueueDepth is the hetero-PHY TX multi-width FIFO depth in
	// flits (Sec. 7.3: 16-deep).
	AdapterQueueDepth int

	// Energy model, per Sec. 8.3. FlitBits is the flit width (the PARSEC
	// traces use 8-byte flits). Energies are pJ/bit for link traversal
	// plus a per-flit router traversal energy in pJ.
	FlitBits         int
	OnChipPJPerBit   float64
	ParallelPJPerBit float64
	SerialPJPerBit   float64
	RouterPJPerFlit  float64

	// SimCycles and WarmupCycles delimit the measurement window: packets
	// created during warm-up are excluded from statistics.
	SimCycles    int64
	WarmupCycles int64

	// DrainCycles bounds the post-injection drain period used by
	// trace-driven runs that want every packet delivered.
	DrainCycles int64

	// DeadlockThreshold is the number of consecutive cycles with in-flight
	// flits but zero flit movement after which the engine reports a
	// deadlock. Zero disables the watchdog.
	DeadlockThreshold int64

	// WormholeAdmission switches VC allocation from virtual cut-through
	// (whole-packet buffer reservation, the default — required by the
	// deadlock-freedom arguments in DESIGN.md) to plain wormhole (one free
	// slot suffices). Ablation only: wormhole admission re-opens the
	// adaptive-commitment deadlock window at saturation, whatever the
	// buffer depths, so Lemma 1 holds only with it off and per-VC buffers
	// of at least PacketLength flits.
	WormholeAdmission bool

	// Workers is the number of shards the cycle engine is cut into, each
	// beyond the first stepped by its own goroutine (1 = one shard, no
	// goroutine; negative is rejected). 0, the default, lets the engine
	// pick: Finalize cuts one shard per 512 nodes, and every 256
	// stepped cycles (loadWindow) the count rises to one per 400 flit
	// movements a cycle when that is more, falling back once the load
	// halves — at most one per CPU and one per 64 nodes (DESIGN.md, "Where
	// sharding pays"). A picked count drops to one shard, pinned here as 1
	// for the rest of the run, when other processes keep its workers off
	// the CPUs.
	// Network.SetWorkers overrides either and records its count here.
	// Shards are whole 64-node wake words, cut at chiplet boundaries where
	// the topology declares aligned ones (Network.SetShardCuts); shards
	// beyond one per word stay empty. Results are bit-identical for any
	// value.
	Workers int

	// Seed seeds the run's random source.
	Seed int64
}

// DefaultConfig returns the paper's Table 2 parameters with full-bandwidth
// interfaces (4-flit/cycle serial, 2-flit/cycle parallel).
func DefaultConfig() Config {
	return Config{
		PacketLength:       16,
		VCs:                2,
		OnChipBandwidth:    2,
		OnChipDelay:        1,
		ParallelBandwidth:  2,
		ParallelDelay:      5,
		SerialBandwidth:    4,
		SerialDelay:        20,
		OnChipBufPerVC:     32,
		IfaceBufPerVC:      64,
		InjectionBandwidth: 2,
		EjectionBandwidth:  4,
		AdapterQueueDepth:  16,
		FlitBits:           64,
		OnChipPJPerBit:     0.1,
		ParallelPJPerBit:   1.0,
		SerialPJPerBit:     2.4,
		RouterPJPerFlit:    1.0,
		SimCycles:          100000,
		WarmupCycles:       10000,
		DrainCycles:        200000,
		DeadlockThreshold:  20000,
		Seed:               1,
	}
}

// Halved returns a copy of c with halved interface bandwidth (2-flit/cycle
// serial, 1-flit/cycle parallel), the pin-constrained configuration of
// Sec. 7.2 used by the "half" hetero-IF systems.
func (c Config) Halved() Config {
	c.ParallelBandwidth = max(1, c.ParallelBandwidth/2)
	c.SerialBandwidth = max(1, c.SerialBandwidth/2)
	return c
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.PacketLength <= 0:
		return fmt.Errorf("network: packet length %d must be positive", c.PacketLength)
	case c.PacketLength > MaxPacketLength:
		return fmt.Errorf("network: packet length %d exceeds %d flits (flit sequence numbers are 16-bit)", c.PacketLength, MaxPacketLength)
	case c.VCs <= 0 || c.VCs > maxVCs:
		return fmt.Errorf("network: VC count %d out of range [1,%d]", c.VCs, maxVCs)
	case c.OnChipBandwidth <= 0 || c.ParallelBandwidth <= 0 || c.SerialBandwidth <= 0:
		return fmt.Errorf("network: bandwidths must be positive")
	case c.InjectionBandwidth <= 0 || c.EjectionBandwidth <= 0:
		return fmt.Errorf("network: injection and ejection bandwidths must be positive")
	case max(c.OnChipBandwidth, c.ParallelBandwidth, c.SerialBandwidth, c.ParallelBandwidth+c.SerialBandwidth, c.InjectionBandwidth) > MaxLinkBandwidth:
		return fmt.Errorf("network: channel bandwidths (on-chip %d, parallel %d + serial %d, injection %d flits per cycle) exceed %d, the most a packed delay-line run or an input port's drain budget counts",
			c.OnChipBandwidth, c.ParallelBandwidth, c.SerialBandwidth, c.InjectionBandwidth, MaxLinkBandwidth)
	case c.OnChipDelay <= 0 || c.ParallelDelay <= 0 || c.SerialDelay <= 0:
		return fmt.Errorf("network: delays must be positive")
	case max(c.OnChipDelay, c.ParallelDelay, c.SerialDelay) > MaxRingDepth:
		return fmt.Errorf("network: delays (on-chip %d, parallel %d, serial %d cycles) exceed %d, the longest delay line a 16-bit stage head indexes",
			c.OnChipDelay, c.ParallelDelay, c.SerialDelay, MaxRingDepth)
	case c.OnChipBufPerVC <= 0 || c.IfaceBufPerVC <= 0:
		return fmt.Errorf("network: buffer depths must be positive")
	case c.AdapterQueueDepth <= 0:
		return fmt.Errorf("network: adapter queue depth %d must be positive", c.AdapterQueueDepth)
	case c.FlitBits <= 0:
		return fmt.Errorf("network: flit width %d bits must be positive", c.FlitBits)
	case !(c.OnChipPJPerBit >= 0 && c.ParallelPJPerBit >= 0 && c.SerialPJPerBit >= 0 && c.RouterPJPerFlit >= 0):
		return fmt.Errorf("network: energies must be non-negative (on-chip %v, parallel %v, serial %v pJ/bit, router %v pJ/flit)",
			c.OnChipPJPerBit, c.ParallelPJPerBit, c.SerialPJPerBit, c.RouterPJPerFlit)
	case c.WarmupCycles < 0 || c.DrainCycles < 0 || c.DeadlockThreshold < 0:
		return fmt.Errorf("network: warm-up %d, drain %d and deadlock threshold %d cycles must be non-negative", c.WarmupCycles, c.DrainCycles, c.DeadlockThreshold)
	case c.SimCycles <= c.WarmupCycles:
		return fmt.Errorf("network: sim cycles %d must exceed warm-up %d", c.SimCycles, c.WarmupCycles)
	case c.Workers < 0:
		return fmt.Errorf("network: workers %d must be non-negative", c.Workers)
	}
	for _, k := range []LinkKind{KindOnChip, KindParallel, KindSerial, KindHeteroPHY} {
		if depth := c.BufPerVC(k); depth > MaxRingDepth {
			return fmt.Errorf("network: %v input buffers of %d flits per VC (the configured depth, or 2 × delay × bandwidth) exceed %d, the deepest ring a 16-bit cursor indexes", k, depth, MaxRingDepth)
		}
	}
	// A flit holds a credit of the hetero-PHY link's downstream buffer from
	// the moment the adapter accepts it until it leaves that buffer, so the
	// buffer space bounds what one adapter can have between issue and ROB
	// release whatever the PHY pipes and retry windows hold. The 16-bit
	// SN/VSN stamps are compared by equality; half their range is margin.
	if depth := c.BufPerVC(KindHeteroPHY); c.VCs*depth >= 1<<15 {
		return fmt.Errorf("network: %d VCs × %d-flit hetero-PHY buffers (the interface buffer depth, or 2 × serial delay × both PHY bandwidths) could put %d flits between adapter issue and reorder-buffer release; sequence numbers are 16-bit, keep it below %d", c.VCs, depth, c.VCs*depth, 1<<15)
	}
	return nil
}

// Bandwidth returns the configured bandwidth for a link kind; hetero-PHY is
// the sum of the two bonded PHYs.
func (c *Config) Bandwidth(k LinkKind) int {
	switch k {
	case KindOnChip:
		return c.OnChipBandwidth
	case KindParallel:
		return c.ParallelBandwidth
	case KindSerial:
		return c.SerialBandwidth
	case KindHeteroPHY:
		return c.ParallelBandwidth + c.SerialBandwidth
	case KindLocal:
		return c.InjectionBandwidth
	}
	return 1
}

// Delay returns the configured traversal delay for a link kind; for
// hetero-PHY it is the parallel (minimum) delay — the adapter model applies
// per-PHY delays itself.
func (c *Config) Delay(k LinkKind) int {
	switch k {
	case KindOnChip, KindLocal:
		return c.OnChipDelay
	case KindParallel, KindHeteroPHY:
		return c.ParallelDelay
	case KindSerial:
		return c.SerialDelay
	}
	return 1
}

// BufPerVC returns the per-VC input buffer depth for a channel of kind k,
// including the credit-round-trip enlargement for interface channels.
func (c *Config) BufPerVC(k LinkKind) int {
	base := c.OnChipBufPerVC
	if k != KindOnChip && k != KindLocal {
		base = c.IfaceBufPerVC
	}
	// Cover the credit round trip so flow control does not artificially
	// throttle a saturated channel (Sec. 7.1 "additional buffer").
	var rtt int
	switch k {
	case KindParallel:
		rtt = 2 * c.ParallelDelay * c.ParallelBandwidth
	case KindSerial:
		rtt = 2 * c.SerialDelay * c.SerialBandwidth
	case KindHeteroPHY:
		rtt = 2 * c.SerialDelay * (c.SerialBandwidth + c.ParallelBandwidth)
	case KindOnChip, KindLocal:
		rtt = 2 * c.OnChipDelay * c.OnChipBandwidth
	}
	return max(base, rtt)
}

// FlitPJ returns the energy of moving one flit across a channel of kind k
// (Sec. 8.3: per-bit energy × flit width), the unit the per-class traversal
// counts are multiplied by. It is 0 for hetero-PHY links, whose adapter
// charges the PHY it picks, and for local ports.
func (c *Config) FlitPJ(k LinkKind) float64 {
	switch k {
	case KindOnChip:
		return c.OnChipPJPerBit * float64(c.FlitBits)
	case KindParallel:
		return c.ParallelPJPerBit * float64(c.FlitBits)
	case KindSerial:
		return c.SerialPJPerBit * float64(c.FlitBits)
	default:
		return 0
	}
}
