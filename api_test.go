package heteroif

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SimCycles = 3000
	cfg.WarmupCycles = 500
	return cfg
}

func TestPublicBuildAndRun(t *testing.T) {
	sys, err := Build(testConfig(), Spec{
		System:    HeteroPHYTorus,
		ChipletsX: 2, ChipletsY: 2,
		NodesX: 3, NodesY: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunSynthetic(UniformTraffic(), 0.1); err != nil {
		t.Fatal(err)
	}
	if sys.Stats.Count() == 0 {
		t.Fatal("no packets measured through the public API")
	}
	if lat := sys.Stats.MeanLatency(); lat <= 0 || lat > 500 {
		t.Fatalf("implausible mean latency %.1f", lat)
	}
}

// TestPublicBuildRejectsSequenceOverflow: the adapter's sequence numbers
// are 16-bit, so a bandwidth × delay setting that would let one adapter hold
// 32,768 flits between issue and reorder-buffer release must come back as
// an error from Build, and one just below it must build.
func TestPublicBuildRejectsSequenceOverflow(t *testing.T) {
	spec := Spec{System: HeteroPHYTorus, ChipletsX: 2, ChipletsY: 2, NodesX: 3, NodesY: 3}
	cfg := testConfig()
	cfg.SerialDelay = 1400 // 2 VCs × (2 × 1400 × 6) buffered flits
	if _, err := Build(cfg, spec); err == nil || !strings.Contains(err.Error(), "16-bit") {
		t.Fatalf("Build with serial delay %d: %v, want a sequence-number error", cfg.SerialDelay, err)
	}
	cfg.SerialDelay = 1300
	if _, err := Build(cfg, spec); err != nil {
		t.Fatalf("Build with serial delay %d: %v", cfg.SerialDelay, err)
	}
}

// TestPublicBuildRejectsBadConfig: settings that used to build and then
// panic (in the adapter constructor or on the first Step) or deliver next
// to nothing come back as an error from Build, without a panic.
func TestPublicBuildRejectsBadConfig(t *testing.T) {
	spec := Spec{System: HeteroPHYTorus, ChipletsX: 2, ChipletsY: 2, NodesX: 4, NodesY: 4}
	for name, mutate := range map[string]func(*Config){
		"adapter queue depth -4": func(c *Config) { c.AdapterQueueDepth = -4 },
		"adapter queue depth 0":  func(c *Config) { c.AdapterQueueDepth = 0 },
		"injection bandwidth 0":  func(c *Config) { c.InjectionBandwidth = 0 },
		"ejection bandwidth 0":   func(c *Config) { c.EjectionBandwidth = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Build panicked: %v", r)
				}
			}()
			cfg := testConfig()
			mutate(&cfg)
			if _, err := Build(cfg, spec); err == nil {
				t.Fatal("Build accepted the config")
			}
		})
	}
}

// TestPublicRunSyntheticRejectsBadRate: a negative or NaN offered load is
// an error, not a run that injects nothing and reports NaN latency.
func TestPublicRunSyntheticRejectsBadRate(t *testing.T) {
	sys, err := Build(testConfig(), Spec{System: UniformParallelMesh, ChipletsX: 2, ChipletsY: 2, NodesX: 2, NodesY: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{-0.1, math.NaN()} {
		if err := sys.RunSynthetic(UniformTraffic(), rate); err == nil || !strings.Contains(err.Error(), "offered load") {
			t.Errorf("RunSynthetic at rate %v: %v, want an error naming the offered load", rate, err)
		}
	}
	if sys.Net.Now != 0 {
		t.Fatalf("a refused run stepped the network to cycle %d", sys.Net.Now)
	}
}

// TestPublicBuildRejectsOneVCHypercube: minus-first hypercube routing puts
// its two phases on VC0 and VC1, so with one VC the plus phase has no VC
// and the run would deadlock; Build refuses it by naming both classes.
func TestPublicBuildRejectsOneVCHypercube(t *testing.T) {
	spec := Spec{System: UniformSerialHypercube, ChipletsX: 2, ChipletsY: 2, NodesX: 2, NodesY: 2}
	cfg := testConfig()
	cfg.VCs = 1
	if _, err := Build(cfg, spec); err == nil || !strings.Contains(err.Error(), "VC0") || !strings.Contains(err.Error(), "VC1") {
		t.Fatalf("Build with 1 VC: %v, want an error naming the VC0 and VC1 phase classes", err)
	}
	cfg.VCs = 2
	if _, err := Build(cfg, spec); err != nil {
		t.Fatalf("Build with 2 VCs: %v", err)
	}
}

// TestPublicOfferRejectsOutOfRangeNodes: a packet naming a node outside the
// system panics in OfferPacket, with the offending nodes in the message,
// instead of an index panic inside the routing function on a later Step.
func TestPublicOfferRejectsOutOfRangeNodes(t *testing.T) {
	sys, err := Build(testConfig(), Spec{System: UniformParallelMesh, ChipletsX: 2, ChipletsY: 2, NodesX: 2, NodesY: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ src, dst NodeID }{{1, 100}, {100, 1}, {-1, 3}, {3, 16}} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				want := fmt.Sprintf("from node %d to node %d, outside the 16-node network", c.src, c.dst)
				if !strings.Contains(msg, want) {
					t.Errorf("OfferPacket(%d, %d) panicked with %q, want it to contain %q", c.src, c.dst, msg, want)
				}
			}()
			OfferPacket(sys, c.src, c.dst, 4, ClassBestEffort, 0)
		}()
	}
	if err := RunWithDriver(sys, 10, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPublicPatternConstructors(t *testing.T) {
	for _, p := range []Pattern{
		UniformTraffic(),
		HotspotTraffic(64, 0.1, 1),
		BitShuffleTraffic(),
		BitComplementTraffic(),
		BitTransposeTraffic(),
		BitReverseTraffic(),
		LocalUniformTraffic(Spec{ChipletsX: 2, NodesX: 3, NodesY: 3}, 1),
	} {
		if p.Name() == "" {
			t.Error("pattern with empty name")
		}
	}
}

func TestPublicPolicies(t *testing.T) {
	for _, pol := range []Policy{
		BalancedPolicy(), PerformanceFirstPolicy(),
		EnergyEfficientPolicy(), ApplicationAwarePolicy(16),
	} {
		if pol.Name() == "" {
			t.Error("policy with empty name")
		}
	}
	// Policies plug into Spec.
	sys, err := Build(testConfig(), Spec{
		System:    HeteroPHYTorus,
		ChipletsX: 2, ChipletsY: 2, NodesX: 2, NodesY: 2,
		Policy: EnergyEfficientPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunSynthetic(UniformTraffic(), 0.05); err != nil {
		t.Fatal(err)
	}
}

// TestPublicTraceReplay replays a 64-rank PARSEC trace on 64 nodes and the
// 1024-rank MOC trace on a 64-node hetero-PHY torus: more ranks than nodes
// wrap over the chiplets' core nodes instead of being refused.
func TestPublicTraceReplay(t *testing.T) {
	parsec, err := PARSECTrace("canneal", 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tr   *Trace
		spec Spec
	}{
		{"parsec on 64-node mesh", parsec, Spec{
			System:    UniformParallelMesh,
			ChipletsX: 4, ChipletsY: 4, NodesX: 2, NodesY: 2,
		}},
		{"1024-rank MOC on 64-node hetero-PHY torus", MOCTrace(16000, 1), Spec{
			System:    HeteroPHYTorus,
			ChipletsX: 2, ChipletsY: 2, NodesX: 4, NodesY: 4,
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys, err := Build(testConfig(), c.spec)
			if err != nil {
				t.Fatal(err)
			}
			offered, err := sys.Replay(c.tr, 1)
			if err != nil {
				t.Fatal(err)
			}
			if sys.Net.PacketsDelivered() == 0 || offered <= 0 {
				t.Fatalf("replay delivered %d packets at offered load %v", sys.Net.PacketsDelivered(), offered)
			}
		})
	}
}

func TestPublicTraceGenerators(t *testing.T) {
	if len(PARSECWorkloads()) < 8 {
		t.Error("expected the full PARSEC workload set")
	}
	if CNSTrace(2000, 1).Ranks != 1024 {
		t.Error("CNS rank count wrong")
	}
}

func TestPublicCustomDriver(t *testing.T) {
	cfg := testConfig()
	cfg.WarmupCycles = 0 // measure every packet of the short custom run
	sys, err := Build(cfg, Spec{
		System:    UniformParallelMesh,
		ChipletsX: 2, ChipletsY: 2, NodesX: 2, NodesY: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each packet is delivered before the next is offered, so the system
	// recycles one Packet struct; the IDs OfferPacket returns stay distinct.
	var sent, delivered []uint64
	sys.Net.OnDeliver = func(p *Packet) { delivered = append(delivered, p.ID) }
	err = RunWithDriver(sys, 500, func(now int64) {
		if now%50 == 0 {
			sent = append(sent, OfferPacket(sys, 0, 9, 4, ClassLatencySensitive, now))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := Drain(sys)
	if err != nil || !ok {
		t.Fatalf("drain: %v %v", ok, err)
	}
	if len(delivered) != len(sent) {
		t.Fatalf("delivered %d of %d", len(delivered), len(sent))
	}
	for i := range sent {
		if sent[i] != uint64(i+1) || delivered[i] != sent[i] {
			t.Fatalf("packet %d: offered ID %d, delivered ID %d, want %d", i, sent[i], delivered[i], i+1)
		}
	}
	if sys.Stats.ClassCount(uint8(ClassLatencySensitive)) == 0 {
		t.Error("per-class stats empty")
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	if len(Experiments()) != 18 {
		t.Fatalf("experiment registry has %d entries, want 18", len(Experiments()))
	}
	var buf bytes.Buffer
	if err := RunExperiment("table1", false, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SerDes") {
		t.Error("table1 output missing interface rows")
	}
	if err := RunExperiment("nope", false, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}
