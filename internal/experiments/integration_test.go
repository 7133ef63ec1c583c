package experiments

import (
	"regexp"
	"strings"
	"testing"

	"heteroif/internal/network"
	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// shortCfg returns a reduced-window configuration with invariant checks on.
func shortCfg() network.Config {
	cfg := network.DefaultConfig()
	cfg.SimCycles = 4000
	cfg.WarmupCycles = 500
	cfg.DrainCycles = 30000
	cfg.DeadlockThreshold = 3000
	return cfg
}

func smallSpec(sys topology.System) topology.Spec {
	spec := topology.Spec{System: sys, ChipletsX: 2, ChipletsY: 2, NodesX: 3, NodesY: 3}
	return spec
}

// TestAllSystemsDeliverUniformTraffic end-to-end: every system type builds,
// routes uniform traffic without deadlock, and delivers every packet.
func TestAllSystemsDeliverUniformTraffic(t *testing.T) {
	systems := []topology.System{
		topology.UniformParallelMesh,
		topology.UniformSerialTorus,
		topology.HeteroPHYTorus,
		topology.UniformSerialHypercube,
		topology.HeteroChannel,
	}
	for _, sys := range systems {
		t.Run(sys.String(), func(t *testing.T) {
			// run fails on a deadlock, an incomplete drain or a credit
			// imbalance.
			out, err := simPoint{
				Name: sys.String(), Cfg: shortCfg(), Spec: smallSpec(sys),
				Pattern: traffic.Uniform{}, Rate: 0.10, Drain: true,
			}.run()
			if err != nil {
				t.Fatal(err)
			}
			if out.Delivered != out.Injected {
				t.Fatalf("delivered %d of %d injected packets", out.Delivered, out.Injected)
			}
			if out.Packets == 0 {
				t.Fatal("no packets measured")
			}
			t.Logf("%s: %d packets, mean latency %.1f cycles", sys, out.Packets, out.MeanLatency)
		})
	}
}

// TestHighLoadNoDeadlock pushes every system well past saturation and
// checks the deadlock watchdog stays quiet (the escape subnetworks keep
// packets moving).
func TestHighLoadNoDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("high-load soak skipped in -short mode")
	}
	systems := []topology.System{
		topology.UniformParallelMesh,
		topology.UniformSerialTorus,
		topology.HeteroPHYTorus,
		topology.UniformSerialHypercube,
		topology.HeteroChannel,
	}
	for _, sys := range systems {
		t.Run(sys.String(), func(t *testing.T) {
			cfg := shortCfg()
			cfg.SimCycles = 6000
			in, err := Build(cfg, smallSpec(sys))
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			// Saturating load plus an adversarial pattern.
			if err := in.RunSynthetic(traffic.BitReverse(), 0.9); err != nil {
				t.Fatalf("run at saturation: %v", err)
			}
			if in.Net.DeadlockAt >= 0 {
				t.Fatalf("deadlock at cycle %d", in.Net.DeadlockAt)
			}
			if in.Net.PacketsDelivered() == 0 {
				t.Fatal("no packets delivered under load")
			}
		})
	}
}

// TestLatencyOrderingLowLoad checks the paper's zero-load ordering at small
// scale (Fig. 12 discussion): the serial-IF torus pays its 20-cycle
// interface delay, so the parallel mesh and the hetero-PHY torus must both
// beat it, and hetero-PHY must not lose to the parallel mesh.
func TestLatencyOrderingLowLoad(t *testing.T) {
	lat := map[topology.System]float64{}
	for _, sys := range []topology.System{
		topology.UniformParallelMesh,
		topology.UniformSerialTorus,
		topology.HeteroPHYTorus,
	} {
		r, err := simPoint{Name: sys.String(), Cfg: shortCfg(), Spec: smallSpec(sys), Pattern: traffic.Uniform{}, Rate: 0.02}.run()
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		lat[sys] = r.MeanLatency
	}
	if lat[topology.UniformSerialTorus] <= lat[topology.UniformParallelMesh] {
		t.Errorf("serial torus (%.1f) should be slower than parallel mesh (%.1f) at low load on a small system",
			lat[topology.UniformSerialTorus], lat[topology.UniformParallelMesh])
	}
	if lat[topology.HeteroPHYTorus] > lat[topology.UniformSerialTorus] {
		t.Errorf("hetero-PHY torus (%.1f) should not be slower than serial torus (%.1f)",
			lat[topology.HeteroPHYTorus], lat[topology.UniformSerialTorus])
	}
}

// TestDrainFailureSaysWhy: a saturated point whose drain runs out of cycles
// fails with a drain error that names a stalled VC, as a watchdog error
// does, and reads the same at one and at two shards.
func TestDrainFailureSaysWhy(t *testing.T) {
	msgs := make([]string, 2)
	for i, workers := range []int{1, 2} {
		cfg := shortCfg()
		cfg.DrainCycles, cfg.Workers = 50, workers
		_, err := simPoint{
			Name: "uniform-parallel-mesh", Cfg: cfg, Spec: smallSpec(topology.UniformParallelMesh),
			Pattern: traffic.Uniform{}, Rate: 1.5, Drain: true,
		}.run()
		if err == nil {
			t.Fatalf("%d shards: a saturated point drained in %d cycles", workers, cfg.DrainCycles)
		}
		msgs[i] = err.Error()
		if !strings.Contains(msgs[i], "drain: drained=false err=<nil>") ||
			!(strings.Contains(msgs[i], "ACTIVE node=") || strings.Contains(msgs[i], "VA-WAIT node=")) {
			t.Fatalf("%d shards: drain error names no stalled VC: %s", workers, msgs[i])
		}
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("drain error depends on the shard count:\n1: %s\n2: %s", msgs[0], msgs[1])
	}
	t.Log(msgs[0])
}

// TestDrainFailureCountsLinkFlits: a drain that runs out of cycles with no
// flit in any router buffer says how many flits sit in links and adapters,
// and reads the same at one and at two shards. (The rest of the flits in
// flight belong to packets whose tail has not been ejected yet.)
func TestDrainFailureCountsLinkFlits(t *testing.T) {
	held := regexp.MustCompile(`: total: 0 active-stalled VCs, 0 VA-waiting VCs; (\d+) flits in links and adapters$`)
	msgs := make([]string, 2)
	for i, workers := range []int{1, 2} {
		cfg := shortCfg()
		cfg.DrainCycles, cfg.Workers = 50, workers
		_, err := simPoint{
			Name: "uniform-serial-torus", Cfg: cfg, Spec: smallSpec(topology.UniformSerialTorus),
			Pattern: traffic.Uniform{}, Rate: 0.9, Drain: true,
		}.run()
		if err == nil {
			t.Fatalf("%d shards: the point drained in %d cycles", workers, cfg.DrainCycles)
		}
		msgs[i] = err.Error()
		m := held.FindStringSubmatch(msgs[i])
		if m == nil || m[1] == "0" {
			t.Fatalf("%d shards: drain error does not count the flits held in links: %s", workers, msgs[i])
		}
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("drain error depends on the shard count:\n1: %s\n2: %s", msgs[0], msgs[1])
	}
	t.Log(msgs[0])
}
