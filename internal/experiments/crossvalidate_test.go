package experiments

import (
	"testing"

	"heteroif/internal/analysis"
	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// TestZeroLoadLatencyMatchesAnalyticalModel cross-validates the simulator
// against the static model: at near-zero load, mean packet latency should
// approximate the average weighted (zero-load) distance plus the packet
// serialization time at the narrowest link plus injection/ejection
// overhead. Agreement within 6% on three different systems (the measured
// ratios are 0.95, 0.98 and 0.95) gives confidence that neither the engine
// nor the analytical model is miscalibrated (and pins the per-hop latency
// calibration of analysis.LatencyCosts to the engine).
func TestZeroLoadLatencyMatchesAnalyticalModel(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation sweep")
	}
	for _, sys := range []topology.System{
		topology.UniformParallelMesh,
		topology.UniformSerialTorus,
		topology.HeteroChannel,
	} {
		cfg := shortCfg()
		cfg.SimCycles = 12000
		cfg.WarmupCycles = 2000
		spec := topology.Spec{System: sys, ChipletsX: 2, ChipletsY: 2, NodesX: 4, NodesY: 4}
		in, err := Build(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		rep := analysis.Analyze(in.Topo, &cfg, analysis.LatencyCosts(&cfg))
		if err := in.RunSynthetic(traffic.Uniform{}, 0.01); err != nil {
			t.Fatal(err)
		}
		// Serialization: tail follows head through the narrowest stage
		// (on-chip and injection bandwidth = 2 flits/cycle).
		serialization := float64(cfg.PacketLength) / float64(cfg.OnChipBandwidth)
		predicted := rep.AvgDistance + serialization + 1 // +ejection cycle
		measured := in.Stats.MeanLatency()
		ratio := measured / predicted
		t.Logf("%-26s measured=%.1f predicted=%.1f (ratio %.2f)", sys, measured, predicted, ratio)
		if ratio < 0.94 || ratio > 1.06 {
			t.Errorf("%v: simulated zero-load latency %.1f diverges from analytical %.1f",
				sys, measured, predicted)
		}
	}
}
