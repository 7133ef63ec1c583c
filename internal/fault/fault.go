package fault

import (
	"math"
	"math/rand"

	"heteroif/internal/core"
	"heteroif/internal/network"
)

// EventKind classifies a scripted fault event.
type EventKind uint8

const (
	// EventBurst raises the per-flit corruption probability to P during
	// [From, To) — a transient noise burst.
	EventBurst EventKind = iota
	// EventDegrade models a stuck/marginal lane: corruption probability at
	// least P from From on (To < 0) or during [From, To).
	EventDegrade
	// EventDown kills the wire during [From, To); To < 0 is permanent.
	// Transmissions attempted while down are lost outright (no arrival,
	// no CRC event) and recovered by the retry timeout.
	EventDown
)

// Fault sites for Event.Phy.
const (
	// PhyLink targets a plain link's own pipeline.
	PhyLink int8 = -1
	// PhyParallel / PhySerial target one PHY of a hetero-PHY adapter link.
	PhyParallel int8 = 0
	PhySerial   int8 = 1
)

// Event is one scripted fault. Events compose with the background BER: the
// effective corruption probability at any cycle is the maximum of the BER-
// derived base rate and every active Burst/Degrade event's P.
type Event struct {
	Kind EventKind
	// Link selects a link ID, or -1 for every link the Phy selector
	// matches.
	Link int
	// Phy selects the fault site (PhyLink, PhyParallel or PhySerial).
	Phy int8
	// From and To bound the active interval [From, To); To < 0 means the
	// event never ends.
	From, To int64
	// P is the per-flit corruption probability while active (ignored for
	// EventDown).
	P float64
}

func (e Event) active(now int64) bool {
	return now >= e.From && (e.To < 0 || now < e.To)
}

// Config describes the fault environment of one run. The zero value
// injects nothing (and Attach then arms no retry machinery at all).
type Config struct {
	// Seed drives every fault draw through Split streams; 0 derives one
	// from the network's seed. Traffic uses Root streams, so the same root
	// seed never aliases the two.
	Seed int64

	// Per-bit error rates by interface class. The paper's reliability gap
	// (Sec. 2.1): long-reach serial runs at a real BER, short-reach
	// parallel and on-chip wires are effectively clean, so
	// SerialBER >> ParallelBER ≈ OnChipBER.
	SerialBER   float64
	ParallelBER float64
	OnChipBER   float64

	// Window and Timeout override the per-link retry replay capacity
	// (flits) and retransmission timeout (cycles); <= 0 derives defaults
	// from each link's bandwidth and delay.
	Window  int
	Timeout int

	// Events are scripted faults layered on top of the background BER.
	Events []Event
}

// enabled reports whether the config injects anything at all.
func (fc Config) enabled() bool {
	return fc.SerialBER > 0 || fc.ParallelBER > 0 || fc.OnChipBER > 0 || len(fc.Events) > 0
}

// PerFlit converts a per-bit error rate to the per-flit corruption
// probability for the given flit width: 1 - (1-ber)^bits.
func PerFlit(ber float64, bits int) float64 {
	if ber <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	return 1 - math.Pow(1-ber, float64(bits))
}

// hook is the per-site TxFault implementation: a private Split RNG stream
// plus the static fault script. Faults are evaluated per transmission
// event, never per cycle, so outcomes are independent of quiescence
// fast-forward and of how many cycles the engine actually visits. The
// stream is seeded from (seed, domain, index) on the site's first draw:
// a site that never carries a flit (a serial PHY the policy never issues
// to) never pays for a source.
type hook struct {
	rng           *rand.Rand // nil until the first draw
	seed          int64
	domain, index uint64
	pFlit         float64
	events        []Event
}

func (h *hook) Corrupt(now int64) bool {
	p := h.pFlit
	for _, e := range h.events {
		if e.Kind != EventDown && e.P > p && e.active(now) {
			p = e.P
		}
	}
	if p <= 0 {
		return false
	}
	if h.rng == nil {
		h.rng = Split(h.seed, h.domain, h.index)
	}
	return h.rng.Float64() < p
}

func (h *hook) Down(now int64) bool {
	for _, e := range h.events {
		if e.Kind == EventDown && e.active(now) {
			return true
		}
	}
	return false
}

// siteHook builds the fault hook for one site, or nil when the site is
// clean (no BER, no matching events) — a clean site gets no retry
// machinery, keeping it bit-identical to a fault-free run.
func siteHook(fc Config, seed int64, linkID int, phy int8, ber float64, bits int) network.TxFault {
	var evs []Event
	for _, e := range fc.Events {
		if e.Phy != phy {
			continue
		}
		if e.Link >= 0 && e.Link != linkID {
			continue
		}
		evs = append(evs, e)
	}
	p := PerFlit(ber, bits)
	if p == 0 && len(evs) == 0 {
		return nil
	}
	domain, index := DomainLink, uint64(linkID)
	if phy != PhyLink {
		domain, index = DomainPHY, uint64(2*linkID+int(phy))
	}
	return &hook{seed: seed, domain: domain, index: index, pFlit: p, events: evs}
}

// Attach walks a built (pre-run) network and arms the retry protocol with
// the configured error model on every faulted site: plain links get
// link-level retry, hetero-PHY adapter links get per-PHY retry. Sites the
// config leaves clean are not touched at all, so a Config that injects
// nothing leaves the network bit-identical to one never passed through
// Attach.
func Attach(net *network.Network, fc Config) {
	if !fc.enabled() {
		return
	}
	seed := fc.Seed
	if seed == 0 {
		seed = net.Cfg.Seed + 40129
	}
	bits := net.Cfg.FlitBits
	for _, l := range net.Links {
		if l.Adapter != nil {
			ad, ok := l.Adapter.(*core.HeteroPHYAdapter)
			if !ok {
				continue
			}
			if h := siteHook(fc, seed, l.ID, PhyParallel, fc.ParallelBER, bits); h != nil {
				ad.EnableRetry(core.PHYParallel, h, fc.Window, fc.Timeout)
			}
			if h := siteHook(fc, seed, l.ID, PhySerial, fc.SerialBER, bits); h != nil {
				ad.EnableRetry(core.PHYSerial, h, fc.Window, fc.Timeout)
			}
			continue
		}
		var ber float64
		switch l.Kind {
		case network.KindSerial:
			ber = fc.SerialBER
		case network.KindParallel:
			ber = fc.ParallelBER
		case network.KindOnChip:
			ber = fc.OnChipBER
		default:
			continue
		}
		if h := siteHook(fc, seed, l.ID, PhyLink, ber, bits); h != nil {
			l.EnableRetry(h, fc.Window, fc.Timeout, net.Packets())
		}
	}
}

// Summary aggregates link-layer reliability counters across every
// retry-enabled site of a network.
type Summary struct {
	network.RetryStats
	// Sites counts retry-enabled fault sites (links and adapter PHYs).
	Sites int
	// Rescued counts flits the failover eviction path re-issued through a
	// parallel PHY.
	Rescued uint64
}

// Summarize collects the Summary of a network after (or during) a run.
func Summarize(net *network.Network) Summary {
	var s Summary
	for _, l := range net.Links {
		if rp := l.Retry(); rp != nil {
			s.Add(rp.Stats)
			s.Sites++
		}
		if l.Adapter == nil {
			continue
		}
		ad, ok := l.Adapter.(*core.HeteroPHYAdapter)
		if !ok {
			continue
		}
		if rp := ad.ParallelRetry(); rp != nil {
			s.Add(rp.Stats)
			s.Sites++
		}
		if rp := ad.SerialRetry(); rp != nil {
			s.Add(rp.Stats)
			s.Sites++
		}
		s.Rescued += ad.Rescued()
	}
	return s
}
