package network_test

import (
	"testing"

	"heteroif/internal/network"
	"heteroif/internal/topology"
)

// TestRingStorageExistsOnlyAfterFinalize: until Finalize ports are
// declarations and Finalize is the one place storage is allocated — before
// it no router has a port (so no VC state, credit counter or ring) and no
// link a delay line; after it every declared port exists and the rings
// tile the storage chunks in (router, port, VC) order: each chunk is used
// up exactly, the next one starts with a router's first ring, and no chunk
// but the last is small.
func TestRingStorageExistsOnlyAfterFinalize(t *testing.T) {
	net, _, err := topology.Build(network.DefaultConfig(), topology.Spec{
		System: topology.HeteroPHYTorus, ChipletsX: 8, ChipletsY: 8, NodesX: 4, NodesY: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ins, outs := make([]int, len(net.Nodes)), make([]int, len(net.Nodes))
	for _, l := range net.Links {
		ins[l.Dst]++
		outs[l.Src]++
		if n := network.DelayLineWords(l); n != 0 {
			t.Fatalf("link %d has %d words of delay line before Finalize", l.ID, n)
		}
	}
	for _, r := range net.Nodes {
		if r.In != nil || r.Out != nil {
			t.Fatalf("router %d has %d input and %d output ports before Finalize", r.ID, len(r.In), len(r.Out))
		}
	}

	net.Finalize()

	for _, r := range net.Nodes {
		if len(r.In) != 1+ins[r.ID] || len(r.Out) != 1+outs[r.ID] {
			t.Fatalf("router %d: %d/%d input/output ports, want %d/%d", r.ID, len(r.In), len(r.Out), 1+ins[r.ID], 1+outs[r.ID])
		}
	}
	for _, l := range net.Links {
		if n, want := network.DelayLineWords(l), 2*l.Delay*(l.Bandwidth+1); n != want {
			t.Fatalf("link %d has %d words of delay line, want %d", l.ID, n, want)
		}
	}
	eachRing := func(f func(r *network.Router, port, vc int, q *network.FlitQueue)) {
		for _, r := range net.Nodes {
			for p, in := range r.In {
				if len(in.VCs) != net.Cfg.VCs {
					t.Fatalf("router %d port %d has %d VCs, want %d", r.ID, p, len(in.VCs), net.Cfg.VCs)
				}
				for v := range in.VCs {
					f(r, p, v, &in.VCs[v].Buf)
				}
			}
		}
	}
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
