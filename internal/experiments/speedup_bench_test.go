package experiments

import (
	"testing"

	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// BenchmarkWorkersScaling measures the parallel stepper on a paper-scale
// (3136-node) hetero-channel system.
func BenchmarkWorkersScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4", 8: "w8"}[workers], func(b *testing.B) {
			cfg := shortCfg()
			cfg.SimCycles = 1 << 62
			cfg.DeadlockThreshold = 0
			cfg.Workers = workers
			in, err := Build(cfg, topology.Spec{System: topology.HeteroChannel, ChipletsX: 8, ChipletsY: 8, NodesX: 7, NodesY: 7})
			if err != nil {
				b.Fatal(err)
			}
			gen := traffic.NewGenerator(in.Net, traffic.Uniform{}, 0.1, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen.Drive(in.Net.Now)
				in.Net.Step()
			}
			b.ReportMetric(float64(in.Topo.N), "nodes")
		})
	}
}
