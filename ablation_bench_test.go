package heteroif

import (
	"testing"

	"heteroif/internal/core"
	"heteroif/internal/experiments"
	"heteroif/internal/network"
	"heteroif/internal/routing"
	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// reports the metric the choice trades on (latency in cycles, energy in
// pJ/packet, delivered packets) via b.ReportMetric, so
// `go test -bench Ablation -benchtime 1x` prints a compact ablation table.

func ablationRun(b *testing.B, cfg network.Config, spec topology.Spec, pat traffic.Pattern, rate float64, mutate func(*experiments.Instance)) *experiments.Instance {
	b.Helper()
	cfg.SimCycles = 15000
	cfg.WarmupCycles = 3000
	in, err := experiments.Build(cfg, spec)
	if err != nil {
		b.Fatal(err)
	}
	if mutate != nil {
		mutate(in)
	}
	if pat != nil {
		if err := in.RunSynthetic(pat, rate); err != nil {
			b.Fatal(err)
		}
	}
	return in
}

func coreBalanced(threshold int) Policy { return core.Balanced{Threshold: threshold} }

// BenchmarkAblationAdmission compares virtual cut-through (the default,
// required by the deadlock-freedom argument) against plain wormhole
// admission near saturation on the parallel mesh.
func BenchmarkAblationAdmission(b *testing.B) {
	spec := topology.Spec{System: topology.UniformParallelMesh, ChipletsX: 4, ChipletsY: 4, NodesX: 4, NodesY: 4}
	for _, tc := range []struct {
		name     string
		wormhole bool
	}{{"vct", false}, {"wormhole", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := network.DefaultConfig()
				cfg.WormholeAdmission = tc.wormhole
				in := ablationRun(b, cfg, spec, traffic.Uniform{}, 0.30, nil)
				b.ReportMetric(in.Stats.MeanLatency(), "lat-cycles")
				b.ReportMetric(in.Stats.Throughput(in.Net.Now-in.Net.Cfg.WarmupCycles, in.Topo.N), "thr-f/c/n")
			}
		})
	}
}

// BenchmarkAblationBypass measures the adapter's latency-sensitive bypass:
// control packets crossing hetero-PHY interfaces behind bulk traffic, with
// the look-ahead window enabled vs disabled.
func BenchmarkAblationBypass(b *testing.B) {
	spec := topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: 4, ChipletsY: 4, NodesX: 2, NodesY: 2}
	for _, tc := range []struct {
		name      string
		lookAhead int
	}{{"bypass-on", 8}, {"bypass-off", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := network.DefaultConfig()
				in := ablationRun(b, cfg, spec, nil, 0, func(in *experiments.Instance) {
					for _, a := range in.Topo.Adapters {
						a.LookAhead = tc.lookAhead
					}
					// Mixed traffic: bulk throughput + sparse control.
					bulk := traffic.NewGenerator(in.Net, traffic.Uniform{}, 0.35, 11)
					bulk.Class = network.ClassThroughput
					ctrl := traffic.NewGenerator(in.Net, traffic.Uniform{}, 0.01, 13)
					ctrl.Class = network.ClassLatencySensitive
					ctrl.Length = 1
					err := in.Net.Run(in.Net.Cfg.SimCycles, func(now int64) {
						bulk.Drive(now)
						ctrl.Drive(now)
					})
					if err != nil {
						b.Fatal(err)
					}
				})
				b.ReportMetric(in.Stats.ClassMeanLatency(uint8(network.ClassLatencySensitive)), "ctrl-lat")
				b.ReportMetric(float64(in.Stats.ClassPercentile(uint8(network.ClassLatencySensitive), 0.99)), "ctrl-p99")
			}
		})
	}
}

// BenchmarkAblationBalancedThreshold sweeps the balanced policy's
// serial-enable threshold (Sec. 5.3.1: the RTL uses half the FIFO).
func BenchmarkAblationBalancedThreshold(b *testing.B) {
	spec := topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: 4, ChipletsY: 4, NodesX: 4, NodesY: 4}
	for _, thr := range []int{2, 8, 14} {
		b.Run(map[int]string{2: "thr-2", 8: "thr-8-half", 14: "thr-14"}[thr], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := network.DefaultConfig()
				sp := spec
				sp.Policy = coreBalanced(thr)
				in := ablationRun(b, cfg, sp, traffic.Uniform{}, 0.3, nil)
				b.ReportMetric(in.Stats.MeanLatency(), "lat-cycles")
				b.ReportMetric(in.Stats.MeanEnergyPJ(), "pJ/pkt")
			}
		})
	}
}

// BenchmarkAblationWeightedRouting compares the Sec. 5.2 weighted-path
// profitability against plain hop-count routing on the hetero-PHY torus:
// hop-count treats a 21-cycle wraparound like any other hop.
func BenchmarkAblationWeightedRouting(b *testing.B) {
	spec := topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: 4, ChipletsY: 4, NodesX: 4, NodesY: 4}
	for _, tc := range []struct {
		name     string
		hopCount bool
	}{{"weighted", false}, {"hop-count", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := network.DefaultConfig()
				in := ablationRun(b, cfg, spec, nil, 0, func(in *experiments.Instance) {
					if tc.hopCount {
						in.Net.Routing = routing.NewTorus(in.Topo, 1, 1, 1)
					}
					gen := traffic.NewGenerator(in.Net, traffic.Uniform{}, 0.1, 17)
					if err := in.Net.Run(in.Net.Cfg.SimCycles, gen.Drive); err != nil {
						b.Fatal(err)
					}
				})
				b.ReportMetric(in.Stats.MeanLatency(), "lat-cycles")
			}
		})
	}
}

// BenchmarkAblationAdaptivity compares negative-first adaptive routing
// against deterministic XY on the uniform-parallel mesh at moderate load:
// adaptivity's value is congestion spreading.
func BenchmarkAblationAdaptivity(b *testing.B) {
	spec := topology.Spec{System: topology.UniformParallelMesh, ChipletsX: 4, ChipletsY: 4, NodesX: 4, NodesY: 4}
	for _, tc := range []struct {
		name string
		xy   bool
	}{{"negative-first", false}, {"xy-deterministic", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := network.DefaultConfig()
				in := ablationRun(b, cfg, spec, nil, 0, func(in *experiments.Instance) {
					in.Net.Routing = &routing.Mesh{T: in.Topo, DimensionOrder: tc.xy}
					gen := traffic.NewGenerator(in.Net, traffic.BitTranspose(), 0.25, 29)
					if err := in.Net.Run(in.Net.Cfg.SimCycles, gen.Drive); err != nil {
						b.Fatal(err)
					}
				})
				b.ReportMetric(in.Stats.MeanLatency(), "lat-cycles")
				b.ReportMetric(in.Stats.Throughput(in.Net.Now-in.Net.Cfg.WarmupCycles, in.Topo.N), "thr-f/c/n")
			}
		})
	}
}

// BenchmarkAblationEq5Bias sweeps the hetero-channel subnetwork-selection
// bias: 1.0 is the paper's hop-minimizing Eq. 5; the serial/parallel
// energy ratio is the energy-efficient setting.
func BenchmarkAblationEq5Bias(b *testing.B) {
	spec := topology.Spec{System: topology.HeteroChannel, ChipletsX: 4, ChipletsY: 4, NodesX: 4, NodesY: 4}
	for _, tc := range []struct {
		name string
		bias float64
	}{{"eq5-1.0", 1.0}, {"eq5-2.4-energy", 2.4}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := network.DefaultConfig()
				in := ablationRun(b, cfg, spec, nil, 0, func(in *experiments.Instance) {
					in.Net.Routing = &routing.HeteroChannel{T: in.Topo, Bias: tc.bias}
					gen := traffic.NewGenerator(in.Net, traffic.Uniform{}, 0.1, 19)
					if err := in.Net.Run(in.Net.Cfg.SimCycles, gen.Drive); err != nil {
						b.Fatal(err)
					}
				})
				b.ReportMetric(in.Stats.MeanLatency(), "lat-cycles")
				b.ReportMetric(in.Stats.MeanEnergyPJ(), "pJ/pkt")
			}
		})
	}
}
