package network_test

import (
	"testing"

	"heteroif/internal/network"
	"heteroif/internal/topology"
)

// TestRingStorageExistsOnlyAfterFinalize: ports declare their ring depth and
// Finalize is the one place the storage is allocated — before it no VC ring
// has a backing array, after it the rings tile the storage chunks in
// (router, port, VC) order: each chunk is used up exactly, the next one
// starts with a router's first ring, and no chunk but the last is small.
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

	var chunkEnd *network.Flit
	var chunks []int // flit slots per chunk
	left := 0        // slots of the current chunk not yet tiled
	eachRing(func(r *network.Router, port, vc int, q *network.FlitQueue) {
		want := net.Cfg.BufPerVC(r.In[port].Kind)
		if q.Cap() != want {
			t.Fatalf("router %d port %d vc %d: ring depth %d, want %d", r.ID, port, vc, q.Cap(), want)
		}
		end, room := network.RingBacking(q)
		if left == 0 {
			if port != 0 || vc != 0 || end == chunkEnd {
				t.Fatalf("router %d port %d vc %d: a chunk does not start with a router's first ring", r.ID, port, vc)
			}
			chunkEnd, left = end, room
			chunks = append(chunks, room)
		}
		if end != chunkEnd || room != left {
			t.Fatalf("router %d port %d vc %d: ring is not the next window of chunk %d (%d slots left, ring has %d behind it)", r.ID, port, vc, len(chunks)-1, left, room)
		}
		left -= q.Cap()
	})
	if left != 0 {
		t.Fatalf("last chunk has %d unused slots", left)
	}
	// 1024 routers × 716 slots: many chunks, none a multi-megabyte array
	// and none but the last a sliver.
	if len(chunks) < 4 {
		t.Fatalf("%d ring chunks for 1024 routers, want many", len(chunks))
	}
	for i, n := range chunks[:len(chunks)-1] {
		if n < 96<<10 || n >= 192<<10 {
			t.Fatalf("chunk %d holds %d flit slots, want [98304, 196608)", i, n)
		}
	}
}
