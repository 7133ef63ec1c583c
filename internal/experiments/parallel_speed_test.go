package experiments

import (
	"testing"
	"time"

	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// TestParallelWorkersEndToEnd: the Workers option produces identical
// statistics on a full system build, and does not slow small systems
// catastrophically.
func TestParallelWorkersEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second determinism check")
	}
	run := func(sys topology.System, workers int) (float64, int64, time.Duration) {
		cfg := shortCfg()
		cfg.SimCycles = 6000
		cfg.Workers = workers
		in, err := Build(cfg, oracleSpec(sys, true))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := in.RunSynthetic(traffic.Uniform{}, 0.2); err != nil {
			t.Fatal(err)
		}
		return in.Stats.MeanLatency(), in.Stats.Count(), time.Since(start)
	}
	// Hetero-channel exercises cube links; hetero-PHY exercises adapter
	// links, whose TX/RX halves run in different parallel phases.
	for _, sys := range []topology.System{topology.HeteroChannel, topology.HeteroPHYTorus} {
		seqLat, seqN, _ := run(sys, 1)
		parLat, parN, _ := run(sys, 4)
		if seqLat != parLat || seqN != parN {
			t.Fatalf("%v: parallel run diverged: lat %.4f/%.4f, n %d/%d", sys, seqLat, parLat, seqN, parN)
		}
	}
}
