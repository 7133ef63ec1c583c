package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"heteroif/internal/network"
	"heteroif/internal/traffic"
)

// digest is an order-sensitive FNV-1a hash over 64-bit words. Every
// workload folds its observable simulated output into one: the arrival
// stream (the fields TestParallelOracle hashes) and the engine's event
// totals. Two repetitions simulated the same thing iff their digests match.
type digest uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigest() digest { return fnvOffset }

func (d *digest) put(v uint64) {
	h := uint64(*d)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	*d = digest(h)
}

func (d *digest) putPacket(p *network.Packet) {
	d.put(p.ID)
	d.put(uint64(uint32(p.Src))<<32 | uint64(uint32(p.Dst)))
	d.put(uint64(p.Length)<<8 | uint64(p.Class))
	d.put(uint64(p.CreatedAt))
	d.put(uint64(p.InjectedAt))
	d.put(uint64(p.ArrivedAt))
	d.put(uint64(uint32(p.HopsOnChip))<<32 | uint64(uint32(p.HopsParallel)))
	d.put(uint64(uint32(p.HopsSerial))<<32 | uint64(uint32(p.HopsHetero)))
	d.put(math.Float64bits(p.EnergyPJ))
	d.put(math.Float64bits(p.EnergyOnChipPJ))
	d.put(math.Float64bits(p.EnergyIfacePJ))
}

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// acc accumulates calls and host time of one interposed boundary. Each
// wrapper owns its acc; nothing is shared between wrapped objects.
type acc struct {
	calls int64
	ns    int64
}

func (a *acc) seconds() float64 { return float64(a.ns) / 1e9 }

// timedRouting interposes on network.Routing. It must forward Stability():
// an algorithm that stops declaring itself Stable silently loses the
// engine's route LUT and RC memoization, which would change what the run
// phase measures. One instance serves every router, so under sharded
// stepping Route runs on several goroutines at once and the counters are
// atomic.
type timedRouting struct {
	inner network.Routing
	calls atomic.Int64
	ns    atomic.Int64
}

func (t *timedRouting) Name() string { return t.inner.Name() }

func (t *timedRouting) Route(net *network.Network, r *network.Router, inPort int, pkt *network.Packet, buf []network.Candidate) []network.Candidate {
	start := time.Now()
	out := t.inner.Route(net, r, inPort, pkt, buf)
	t.ns.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return out
}

func (t *timedRouting) Stability() network.RouteStability {
	if s, ok := t.inner.(network.Stable); ok {
		return s.Stability()
	}
	return network.RouteDynamic
}

// timedAdapter interposes on one link's hetero-PHY adapter. A link belongs
// to exactly one shard, so the plain counters are safe under parallel
// stepping; summed over adapters the CPU time can then exceed wall time.
type timedAdapter struct {
	inner   network.Adapter
	tick    acc
	accepts int64
}

func (t *timedAdapter) FreeSlots() int { return t.inner.FreeSlots() }
func (t *timedAdapter) InFlight() int  { return t.inner.InFlight() }
func (t *timedAdapter) Busy() bool     { return t.inner.Busy() }

func (t *timedAdapter) Accept(now int64, f network.Flit) {
	t.accepts++
	t.inner.Accept(now, f)
}

func (t *timedAdapter) Tick(now int64, deliver func(network.Flit)) {
	start := time.Now()
	t.inner.Tick(now, deliver)
	t.tick.ns += int64(time.Since(start))
	t.tick.calls++
}

// wrapAdapters installs a timedAdapter on every adapter link. It must run
// after fault.Attach, which type-asserts the concrete adapter to arm retry.
func wrapAdapters(net *network.Network) []*timedAdapter {
	var out []*timedAdapter
	for _, l := range net.Links {
		if l.Adapter != nil {
			t := &timedAdapter{inner: l.Adapter}
			l.Adapter = t
			out = append(out, t)
		}
	}
	return out
}

// unwrapAdapters restores the concrete adapters so fault.Summarize (which
// type-asserts them too) sees the retry pipes.
func unwrapAdapters(net *network.Network) {
	for _, l := range net.Links {
		if t, ok := l.Adapter.(*timedAdapter); ok {
			l.Adapter = t.inner
		}
	}
}

// countingPattern counts generated packets from outside the generator:
// traffic.Generator calls Dest exactly once per packet it creates.
type countingPattern struct {
	traffic.Pattern
	n int64
}

func (c *countingPattern) Dest(rng *rand.Rand, src, n int) int {
	c.n++
	return c.Pattern.Dest(rng, src, n)
}

// span is one recorded interval. Parent names the enclosing span ("" for a
// root); all spans of one repetition share the workload as identifier.
type span struct {
	Name   string
	Parent string
	Start  time.Duration // since the recorder's origin
	End    time.Duration
	Lane   int // Chrome tid: 0 = phases, 1.. = per-layer children
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced repetitions pay a nil check.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) add(name, parent string, lane int, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{name, parent, start.Sub(r.origin), end.Sub(r.origin), lane})
}

// addAggregate records a per-layer child whose time was accumulated over
// many short calls inside [start, start+chunk): it is drawn from the
// chunk's start with its summed duration.
func (r *recorder) addAggregate(name, parent string, lane int, start time.Time, d time.Duration) {
	r.add(name, parent, lane, start, start.Add(d))
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto opens directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// write emits the spans as Chrome trace-event JSON.
func (r *recorder) write(path, workload string) error {
	events := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]string{"parent": s.Parent, "workload": workload},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
