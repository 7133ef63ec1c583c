package network_test

import (
	"testing"

	"heteroif/internal/network"
	"heteroif/internal/routing"
	"heteroif/internal/topology"
)

// TestRingStorageExistsOnlyAfterFinalize: ports declare their ring depth and
// Finalize is the one place the storage is allocated — before it no VC ring
// has a backing array, after it the rings tile a single flit slab in
// (router, port, VC) order.
func TestRingStorageExistsOnlyAfterFinalize(t *testing.T) {
	net, _, err := topology.Build(network.DefaultConfig(), topology.Spec{
		System: topology.HeteroPHYTorus, ChipletsX: 8, ChipletsY: 8, NodesX: 4, NodesY: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	eachRing := func(f func(r *network.Router, port, vc int, q *network.FlitQueue)) {
		for _, r := range net.Nodes {
			for p, in := range r.In {
				for v := range in.VCs {
					f(r, p, v, &in.VCs[v].Buf)
				}
			}
		}
	}
	eachRing(func(r *network.Router, port, vc int, q *network.FlitQueue) {
		if end, _ := network.RingBacking(q); end != nil || q.Cap() != 0 {
			t.Fatalf("router %d port %d vc %d has ring storage (cap %d) before Finalize", r.ID, port, vc, q.Cap())
		}
	})

	net.Finalize()

	total := 0
	eachRing(func(_ *network.Router, _, _ int, q *network.FlitQueue) { total += q.Cap() })
	slabEnd, _ := network.RingBacking(&net.Nodes[0].In[0].VCs[0].Buf)
	off := 0
	eachRing(func(r *network.Router, port, vc int, q *network.FlitQueue) {
		want := net.Cfg.BufPerVC(r.In[port].Kind)
		if q.Cap() != want {
			t.Fatalf("router %d port %d vc %d: ring depth %d, want %d", r.ID, port, vc, q.Cap(), want)
		}
		if end, room := network.RingBacking(q); end != slabEnd || room != total-off {
			t.Fatalf("router %d port %d vc %d: ring is not the slab window at flit offset %d of %d", r.ID, port, vc, off, total)
		}
		off += q.Cap()
	})
}

// TestRouteLUTPoolSize: the LUT's candidate pool is sized from the
// first router's row instead of grown by append, so it carries at most a
// quarter of slack on every Table-2 system.
func TestRouteLUTPoolSize(t *testing.T) {
	for _, sys := range []topology.System{
		topology.UniformParallelMesh, topology.UniformSerialTorus, topology.HeteroPHYTorus,
		topology.UniformSerialHypercube, topology.HeteroChannel,
	} {
		net, topo, err := topology.Build(network.DefaultConfig(), topology.Spec{
			System: sys, ChipletsX: 4, ChipletsY: 4, NodesX: 4, NodesY: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if net.Routing, err = routing.ForSystem(topo, &net.Cfg); err != nil {
			t.Fatal(err)
		}
		net.Finalize()
		net.Step() // the first Step prepares the LUT
		n, c := net.LUTPool()
		if !net.HasRouteLUT() {
			if st, ok := net.Routing.(network.Stable); ok && st.Stability() == network.RoutePure {
				t.Errorf("%v: pure routing on 256 nodes built no LUT", sys)
			}
			continue
		}
		if n == 0 || 4*c > 5*n {
			t.Errorf("%v: LUT pool holds %d candidates in capacity %d, want at most 1.25x", sys, n, c)
		}
		t.Logf("%v: %d candidates, capacity %d", sys, n, c)
	}
}
