package core

import (
	"heteroif/internal/network"
	"heteroif/internal/stats"
)

// serialEvictor is the adapter-side hook of a failure-aware policy: when
// it returns true the adapter evicts every undelivered flit off the serial
// retry pipe and re-issues it through the parallel PHY (see
// HeteroPHYAdapter.rescueSerial).
type serialEvictor interface {
	EvictSerial(st *State) bool
}

// PolicyCloner is implemented by stateful policies. The topology builder
// clones the spec's policy once per adapter so health-monitor state is
// never shared between interfaces.
type PolicyCloner interface {
	Policy
	ClonePolicy() Policy
}

// FailoverPolicy wraps a base scheduling policy with serial-PHY health
// monitoring driven by link-layer retry telemetry. Rules:
//
//   - Healthy: defer to Base unchanged.
//   - Trip: when a Window-cycle evaluation sees at least MinSample serial
//     transmissions of which >= TripRate were retransmissions, the serial
//     PHY is declared degraded/dead and all traffic is steered to the
//     parallel PHY.
//   - Probe: while tripped, one flit is allowed onto the serial PHY every
//     ProbeInterval cycles; its delivery (or loss) refreshes the
//     telemetry the recovery rule needs.
//   - Evict: while tripped, flits stuck in the serial replay buffer for
//     EvictAge cycles or longer are rescued onto the parallel PHY (the
//     adapter's rescueSerial), keeping the ROB from wedging on a VSN gap
//     a dead wire would never fill.
//   - Recover: after RecoverWindows consecutive judgeable windows with a
//     retry rate below TripRate/2, traffic fails back to Base.
//
// A FailoverPolicy is stateful: use one instance per adapter (the topology
// builder clones it via PolicyCloner).
type FailoverPolicy struct {
	// Base is the policy used while the serial PHY is healthy; nil means
	// Balanced{}.
	Base Policy
	// Window is the health-evaluation period in cycles (default 256).
	Window int64
	// TripRate is the retransmission fraction that trips failover
	// (default 0.25).
	TripRate float64
	// MinSample is the minimum serial transmissions per window for a trip
	// judgment (default 8) — protects against tripping on one unlucky
	// flit at idle.
	MinSample uint64
	// ProbeInterval is the tripped-state serial probe period in cycles
	// (default = Window).
	ProbeInterval int64
	// RecoverWindows is how many consecutive healthy windows untrip
	// (default 2).
	RecoverWindows int
	// EvictAge is the stuck-flit age, in cycles, at which tripped-state
	// eviction fires (default 512; keep it above the retry timeout so
	// ordinary retransmissions never trigger a rescue).
	EvictAge int64

	win       stats.Windowed
	tripped   bool
	healthy   int
	lastProbe int64
	trips     uint64
	recovers  uint64
}

// NewFailoverPolicy returns a failover wrapper around base (nil means
// Balanced{}) with default monitoring parameters.
func NewFailoverPolicy(base Policy) *FailoverPolicy {
	if base == nil {
		base = Balanced{}
	}
	return &FailoverPolicy{
		Base:           base,
		Window:         256,
		TripRate:       0.25,
		MinSample:      8,
		ProbeInterval:  256,
		RecoverWindows: 2,
		EvictAge:       512,
	}
}

// Name implements Policy.
func (p *FailoverPolicy) Name() string {
	base := p.Base
	if base == nil {
		base = Balanced{}
	}
	return "failover+" + base.Name()
}

// Dispatch implements Policy: update the health monitor from the state's
// serial telemetry, then route per the rules above.
func (p *FailoverPolicy) Dispatch(st *State, f network.Flit) (PHY, bool) {
	p.observe(st)
	if !p.tripped {
		base := p.Base
		if base == nil {
			base = Balanced{}
		}
		return base.Dispatch(st, f)
	}
	if st.Now-p.lastProbe >= p.probeInterval() && st.SerialBudget > 0 {
		p.lastProbe = st.Now
		return PHYSerial, true
	}
	return PHYParallel, st.ParallelBudget > 0
}

// EvictSerial implements the adapter's serial-eviction hook. It also
// feeds the health monitor: the hook runs every adapter tick, so a dead
// serial PHY is detected from its retry telemetry even when nothing new
// is being dispatched — the closed-loop collective case, where every
// upstream message is blocked on the stuck deliveries and Dispatch (the
// other observation point) is never reached.
func (p *FailoverPolicy) EvictSerial(st *State) bool {
	p.observe(st)
	return p.tripped && st.SerialPending > 0 && st.SerialOldestAge >= p.evictAge()
}

// ClonePolicy implements PolicyCloner: the clone shares the parameters and
// starts with fresh monitor state.
func (p *FailoverPolicy) ClonePolicy() Policy {
	c := *p
	c.win = stats.Windowed{Window: c.win.Window}
	c.tripped = false
	c.healthy = 0
	c.lastProbe = 0
	c.trips = 0
	c.recovers = 0
	return &c
}

// Tripped reports whether the serial PHY is currently considered failed.
func (p *FailoverPolicy) Tripped() bool { return p.tripped }

// Trips returns how many times failover tripped.
func (p *FailoverPolicy) Trips() uint64 { return p.trips }

// Recoveries returns how many times traffic failed back after recovery.
func (p *FailoverPolicy) Recoveries() uint64 { return p.recovers }

func (p *FailoverPolicy) window() int64 {
	if p.Window > 0 {
		return p.Window
	}
	return 256
}

func (p *FailoverPolicy) probeInterval() int64 {
	if p.ProbeInterval > 0 {
		return p.ProbeInterval
	}
	return p.window()
}

func (p *FailoverPolicy) evictAge() int64 {
	if p.EvictAge > 0 {
		return p.EvictAge
	}
	return 512
}

func (p *FailoverPolicy) observe(st *State) {
	if p.win.Window == 0 {
		p.win.Window = p.window()
	}
	if !p.win.Observe(st.Now, st.SerialRetries, st.SerialSent) {
		return
	}
	tripRate := p.TripRate
	if tripRate <= 0 {
		tripRate = 0.25
	}
	if !p.tripped {
		minSample := p.MinSample
		if minSample == 0 {
			minSample = 8
		}
		if p.win.Den >= minSample && p.win.Rate >= tripRate {
			p.tripped = true
			p.trips++
			p.healthy = 0
			p.lastProbe = st.Now
		}
		return
	}
	// Tripped: judge any window that saw serial traffic (probes are rare,
	// so even a single delivered probe counts toward recovery).
	if p.win.Den == 0 {
		return
	}
	if p.win.Rate < tripRate/2 {
		p.healthy++
		rw := p.RecoverWindows
		if rw <= 0 {
			rw = 2
		}
		if p.healthy >= rw {
			p.tripped = false
			p.recovers++
			p.healthy = 0
		}
	} else {
		p.healthy = 0
	}
}

var _ PolicyCloner = (*FailoverPolicy)(nil)
var _ serialEvictor = (*FailoverPolicy)(nil)
