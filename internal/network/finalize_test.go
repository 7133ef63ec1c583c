package network

import (
	"reflect"
	"testing"
)

// TestRefinalizeKeepsRingState: Finalize is the one place ring storage is
// allocated, so a second call mid-run re-homes rings that hold buffered and
// staged flits. Contents, consumer and producer cursors and the credit
// invariant must carry over, and the run must continue exactly like one
// that was never re-finalized.
func TestRefinalizeKeepsRingState(t *testing.T) {
	type ring struct {
		head, n, wpos, pend int
		flits               []Flit
	}
	snapshot := func(net *Network) (rings []ring, buffered, staged int) {
		for _, r := range net.Nodes {
			for _, in := range r.In {
				for v := range in.VCs {
					q := &in.VCs[v].Buf
					rings = append(rings, ring{q.head, q.n, q.wpos, q.pend, append([]Flit(nil), q.buf...)})
					buffered += q.n
					staged += q.pend
				}
			}
		}
		return
	}
	run := func(net *Network, until int64) {
		for net.Now < until {
			saturateXYMesh(net, net.Now)
			net.Step()
		}
	}
	record := func(net *Network) *[][2]int64 {
		log := &[][2]int64{}
		net.Sink = func(p *Packet) { *log = append(*log, [2]int64{int64(p.ID), p.ArrivedAt}) }
		return log
	}

	ref, net := buildXYMesh(t, 6, true), buildXYMesh(t, 6, true)
	refLog, netLog := record(ref), record(net)
	run(ref, 400)
	run(net, 400)

	before, buffered, staged := snapshot(net)
	if buffered == 0 || staged == 0 {
		t.Fatalf("fixture holds %d buffered and %d staged flits, want both non-zero", buffered, staged)
	}
	net.Finalize()
	after, _, _ := snapshot(net)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("re-Finalize changed ring contents or cursors")
	}
	if err := net.CheckCredits(); err != nil {
		t.Fatal(err)
	}

	run(ref, 1200)
	run(net, 1200)
	if len(*netLog) == 0 || !reflect.DeepEqual(*refLog, *netLog) {
		t.Fatalf("arrivals diverged after re-Finalize: %d vs %d deliveries", len(*netLog), len(*refLog))
	}
	if net.VAFailures != ref.VAFailures || net.GrantsByKind != ref.GrantsByKind {
		t.Fatal("allocator statistics diverged after re-Finalize")
	}
	if err := net.CheckCredits(); err != nil {
		t.Fatal(err)
	}
}
