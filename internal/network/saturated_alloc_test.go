package network_test

import (
	"fmt"
	"strings"
	"testing"

	"heteroif/internal/core"
	"heteroif/internal/network"
	"heteroif/internal/network/netbench"
	"heteroif/internal/topology"
)

// armRetry arms reliable link-layer retry (nil hook) on every plain
// interface link of net and on both PHYs of every hetero-PHY adapter.
func armRetry(net *network.Network) *network.Network {
	for _, l := range net.Links {
		if ad, ok := l.Adapter.(*core.HeteroPHYAdapter); ok {
			ad.EnableRetry(core.PHYParallel, nil, 0, 0)
			ad.EnableRetry(core.PHYSerial, nil, 0, 0)
		} else if l.Kind == network.KindParallel || l.Kind == network.KindSerial {
			l.EnableRetry(nil, 0, 0, net.Packets())
		}
	}
	return net
}

func heteroPHYTorus() *network.Network {
	return netbench.Build(topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: 2, ChipletsY: 2, NodesX: 4, NodesY: 4})
}

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
// queues and the reorder buffers; armed with retry, every link's per-flit
// path runs through retry pipes: their replay buffers, wires and acks.
func TestSaturatedStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job covers this")
	}
	for name, net := range map[string]*network.Network{
		"on-chip-mesh":     netbench.BuildMesh(8),
		"hetero-channel":   netbench.Build(topology.Spec{System: topology.HeteroChannel, ChipletsX: 4, ChipletsY: 4, NodesX: 2, NodesY: 2}),
		"hetero-phy":       heteroPHYTorus(),
		"hetero-phy/retry": armRetry(heteroPHYTorus()),
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

// TestCheckCreditsCoversAdapterLinks saturates the hetero-PHY torus, with
// and without retry on both PHYs of every adapter, and requires
// CheckCredits to balance every link with flits in the adapters, then to
// report one credit leaked on an adapter link.
func TestCheckCreditsCoversAdapterLinks(t *testing.T) {
	for name, net := range map[string]*network.Network{
		"plain": heteroPHYTorus(),
		"retry": armRetry(heteroPHYTorus()),
	} {
		netbench.Saturate(net)
		if err := net.CheckCredits(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var l *network.Link
		for _, cand := range net.Links {
			if cand.Adapter != nil && cand.Adapter.InFlight() > 0 {
				l = cand
				break
			}
		}
		if l == nil {
			t.Fatalf("%s: no adapter holds a flit at saturation", name)
		}
		net.Nodes[l.Src].Out[l.SrcPort].Credits[0]--
		err := net.CheckCredits()
		if want := fmt.Sprintf("link %d ", l.ID); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: leaked a credit on adapter link %d, CheckCredits said %v", name, l.ID, err)
		}
	}
}
