package network_test

import (
	"testing"

	"heteroif/internal/network"
	"heteroif/internal/network/netbench"
	"heteroif/internal/topology"
)

// checkSaturatedZeroAllocs drives net to steady-state saturation (every
// scratch slice and work list at steady capacity) and requires that a Step
// under full load then allocates nothing while traffic keeps flowing.
func checkSaturatedZeroAllocs(t *testing.T, name string, net *network.Network) {
	sat := netbench.Saturate(net)
	delivered := net.PacketsDelivered()
	if avg := testing.AllocsPerRun(500, func() {
		sat.Drive(net.Now)
		net.Step()
	}); avg != 0 {
		t.Errorf("%s: saturated Step allocates %.2f times per cycle, want 0", name, avg)
	}
	if net.DeadlockAt >= 0 || net.PacketsDelivered() == delivered {
		t.Errorf("%s: no traffic flowed during the measurement (deadlock at %d)", name, net.DeadlockAt)
	}
}

// TestSaturatedStepZeroAllocs asserts the steady-state guarantee of the
// saturated kernels on one shard. Packet churn is covered too — the packet
// table recycles delivered packets' slots, so even the injection path stays
// off the heap. The hetero-channel system adds plain Delay-5 and Delay-20
// links: every stage of their delay lines must have reached its steady
// capacity as well. The hetero-PHY torus adds adapter links: both PHYs'
// queues and the reorder buffers.
func TestSaturatedStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job covers this")
	}
	for name, net := range map[string]*network.Network{
		"on-chip-mesh":   netbench.BuildMesh(8),
		"hetero-channel": netbench.Build(topology.Spec{System: topology.HeteroChannel, ChipletsX: 4, ChipletsY: 4, NodesX: 2, NodesY: 2}),
		"hetero-phy":     netbench.Build(topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: 2, ChipletsY: 2, NodesX: 4, NodesY: 4}),
	} {
		checkSaturatedZeroAllocs(t, name, net)
	}
}

// TestSaturatedParallelStepZeroAllocs is the two-shard case: saturated
// stepping through the worker dispatch and the cross-shard merge must also
// be allocation-free in steady state. Both systems have two wake words, so
// both shards hold routers. SetWorkers(2) always starts a real worker
// goroutine, whatever the host's CPU count.
func TestSaturatedParallelStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job covers this")
	}
	for name, net := range map[string]*network.Network{
		"on-chip-mesh": netbench.BuildMesh(16),
		"hetero-phy":   netbench.Build(topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: 4, ChipletsY: 2, NodesX: 4, NodesY: 4}),
	} {
		net.SetWorkers(2)
		checkSaturatedZeroAllocs(t, name+"/2 shards", net)
		net.SetWorkers(0)
	}
}
