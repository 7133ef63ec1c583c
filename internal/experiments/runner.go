// Package experiments builds complete systems (network + topology +
// routing + statistics) and contains one runner per table and figure of the
// paper's evaluation (Sec. 8). cmd/hetsim exposes them on the command line;
// bench_test.go at the repository root exposes them as Go benchmarks.
package experiments

import (
	"fmt"

	"heteroif/internal/network"
	"heteroif/internal/routing"
	"heteroif/internal/stats"
	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// Instance is a ready-to-run system: network, topology metadata, routing
// and a statistics collector wired into the packet sink.
type Instance struct {
	Net   *network.Network
	Topo  *topology.Topo
	Stats *stats.Collector
}

// Build constructs a system and attaches the matching routing algorithm.
func Build(cfg network.Config, spec topology.Spec) (*Instance, error) {
	net, topo, err := topology.Build(cfg, spec)
	if err != nil {
		return nil, err
	}
	alg, err := routing.ForSystem(topo, &net.Cfg)
	if err != nil {
		return nil, err
	}
	net.Routing = alg
	in := &Instance{Net: net, Topo: topo, Stats: &stats.Collector{Warmup: cfg.WarmupCycles}}
	net.Sink = func(p *network.Packet) {
		in.Stats.Record(stats.Measured{
			Class:          uint8(p.Class),
			CreatedAt:      p.CreatedAt,
			InjectedAt:     p.InjectedAt,
			ArrivedAt:      p.ArrivedAt,
			Length:         p.Length,
			EnergyPJ:       p.EnergyPJ,
			EnergyOnChipPJ: p.EnergyOnChipPJ,
			EnergyIfacePJ:  p.EnergyIfacePJ,
			HopsOnChip:     p.HopsOnChip,
			HopsParallel:   p.HopsParallel,
			HopsSerial:     p.HopsSerial,
			HopsHetero:     p.HopsHetero,
		})
	}
	net.Finalize()
	// The sink above copies every field it needs into a value struct, so
	// delivered packets can be recycled.
	net.PoolPackets = true
	// A generous hop bound (several diameters) catches any residual
	// wandering — reachable only under fault injection, where the torus
	// weighted-distance heuristic can point at a dead wraparound.
	net.LivelockHopBound = 6 * (topo.GX + topo.GY)
	// Shard the stepper along chiplet rows so cross-shard traffic rides the
	// D2D interface links.
	net.SetShardCuts(topo.ShardCuts())
	net.SetWorkers(cfg.Workers)
	return in, nil
}

// release stops the instance's shard workers. Every runner defers it once
// Build succeeds, so a point's goroutines end when the point returns; the
// network's finalizer is only the backstop for instances dropped without
// it. The network stays usable: it steps as one shard from here on, with
// identical results.
func (in *Instance) release() {
	in.Net.SetWorkers(0)
}

// RunSynthetic drives the instance with a synthetic pattern at the given
// offered load (flits/cycle/node) for cfg.SimCycles cycles.
func (in *Instance) RunSynthetic(p traffic.Pattern, rate float64) error {
	gen := traffic.NewGenerator(in.Net, p, rate, in.Net.Cfg.Seed+17)
	return in.Net.Run(in.Net.Cfg.SimCycles-in.Net.Now, gen.Drive)
}

// Result is one measured operating point. The JSON tags define the
// machine-readable manifest row format (see Manifest); renaming a field is
// a manifest schema change.
type Result struct {
	System         string  `json:"system"`
	Workload       string  `json:"workload"`
	Rate           float64 `json:"offered_rate"` // offered flits/cycle/node
	MeanLatency    float64 `json:"mean_latency"` // cycles, creation→delivery
	NetLatency     float64 `json:"net_latency"`  // cycles, injection→delivery
	P99Latency     int64   `json:"p99_latency"`
	StdDev         float64 `json:"stddev"`
	Throughput     float64 `json:"throughput"`        // accepted flits/cycle/node
	EnergyPJ       float64 `json:"energy_pj_per_pkt"` // per packet
	EnergyOnChipPJ float64 `json:"energy_onchip_pj"`
	EnergyIfacePJ  float64 `json:"energy_iface_pj"`
	Packets        int64   `json:"packets"`
	HopsOnChip     float64 `json:"hops_onchip"`
	HopsIface      float64 `json:"hops_iface"` // parallel+serial+hetero
	Saturated      bool    `json:"saturated"`
}

// Measure summarizes the instance's collector into a Result.
func (in *Instance) Measure(system, workload string, rate float64) Result {
	c := in.Stats
	window := in.Net.Now - in.Net.Cfg.WarmupCycles
	oc, pa, se, he := c.MeanHops()
	eOn, eIf := c.MeanEnergyBreakdownPJ()
	r := Result{
		System:         system,
		Workload:       workload,
		Rate:           rate,
		MeanLatency:    c.MeanLatency(),
		NetLatency:     c.MeanNetLatency(),
		P99Latency:     c.Percentile(0.99),
		StdDev:         c.LatencyStdDev(),
		Throughput:     c.Throughput(window, in.Topo.N),
		EnergyPJ:       c.MeanEnergyPJ(),
		EnergyOnChipPJ: eOn,
		EnergyIfacePJ:  eIf,
		Packets:        c.Count(),
		HopsOnChip:     oc,
		HopsIface:      pa + se + he,
	}
	// A network is saturated when it accepts meaningfully less than
	// offered or when queues grew without bound during the run.
	if rate > 0 && r.Throughput < 0.85*rate {
		r.Saturated = true
	}
	if in.Net.QueuedPackets() > in.Topo.N {
		r.Saturated = true
	}
	return r
}

// String renders a result row.
func (r Result) String() string {
	return fmt.Sprintf("%-26s %-18s rate=%.3f lat=%8.1f net=%8.1f p99=%6d thr=%.4f e/pkt=%7.1fpJ sat=%v",
		r.System, r.Workload, r.Rate, r.MeanLatency, r.NetLatency, r.P99Latency, r.Throughput, r.EnergyPJ, r.Saturated)
}
