package network_test

import (
	"flag"
	"runtime"
	"runtime/debug"
	"testing"

	"heteroif/internal/network"
	"heteroif/internal/routing"
	"heteroif/internal/topology"
)

// profiledNet keeps TestBuildFootprint's network reachable when the test
// binary writes a heap profile at exit (-memprofile; make prof), so the
// profile's in-use view is the finalized 3,136-node build.
var profiledNet *network.Network

// TestBuildFootprint builds Table 3's largest system, 64 chiplets of 7×7
// nodes (3,136 nodes, the bench's synth_low), the way the bench does: with
// the collector paused, so everything set-up allocates counts towards the
// peak whether it stays live or not. The heap live after Finalize must stay
// within the budget (DESIGN.md, "Bytes per node": 21.4 MB when it was set,
// 12.1 MB of it flit rings), and set-up must leave at most 1 MB of garbage
// (0.5 MB, the builders' appends).
func TestBuildFootprint(t *testing.T) {
	const liveBudget, garbageBudget = 22 << 20, 1 << 20
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&m0)
	net, topo, err := topology.Build(network.DefaultConfig(), topology.Spec{
		System: topology.HeteroChannel, ChipletsX: 8, ChipletsY: 8, NodesX: 7, NodesY: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if net.Routing, err = routing.ForSystem(topo, &net.Cfg); err != nil {
		t.Fatal(err)
	}
	net.Finalize()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	if f := flag.Lookup("test.memprofile"); f != nil && f.Value.String() != "" {
		profiledNet = net
	}
	runtime.KeepAlive(net)

	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	live := m2.HeapAlloc - m0.HeapAlloc
	garbage := m1.HeapAlloc - m2.HeapAlloc
	t.Logf("%d nodes, %d links: %.1f MB live after Finalize (%.0f B per node), %.2f MB of set-up garbage, %d objects allocated",
		len(net.Nodes), len(net.Links), mb(live), float64(live)/float64(len(net.Nodes)), mb(garbage), m1.Mallocs-m0.Mallocs)
	if live > liveBudget {
		t.Errorf("%.1f MB live after Finalize, budget %.1f MB", mb(live), mb(liveBudget))
	}
	if garbage > garbageBudget {
		t.Errorf("set-up left %.2f MB of garbage, budget %.2f MB", mb(garbage), mb(garbageBudget))
	}
}
