package network

import (
	"reflect"
	"testing"
)

// TestRefinalizeKeepsRingState: Finalize is the one place ring storage is
// allocated, so a second call mid-run re-homes rings that hold buffered and
// staged flits. Contents, consumer and producer cursors and the credit
// invariant must carry over, and the run must continue exactly like one
// that was never re-finalized — on Delay-1 links and on deeper ones caught
// with flits in several stages of their delay lines.
func TestRefinalizeKeepsRingState(t *testing.T) {
	t.Run("on-chip", func(t *testing.T) { testRefinalize(t, buildXYMesh, 1) })
	t.Run("mixed-delay", func(t *testing.T) { testRefinalize(t, buildMixedMesh, 3) })
}

// testRefinalize runs the re-Finalize scenario on build's 6×6 mesh, which
// must hold some link with at least wantStages occupied delay-line stages
// at the re-Finalize.
func testRefinalize(t *testing.T, build func(testing.TB, int) *Network, wantStages int) {
	type ring struct {
		head, n, wpos, pend uint16
		flits               []Flit
	}
	snapshot := func(net *Network) (rings []ring, buffered, staged int) {
		for _, r := range net.Nodes {
			for _, in := range r.In {
				for v := range in.VCs {
					q := &in.VCs[v].Buf
					rings = append(rings, ring{q.head, q.n, q.wpos, q.pend, append([]Flit(nil), q.buf...)})
					buffered += int(q.n)
					staged += int(q.pend)
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

	ref, net := build(t, 6), build(t, 6)
	refLog, netLog := record(ref), record(net)
	run(ref, 400)
	run(net, 400)

	before, buffered, staged := snapshot(net)
	if buffered == 0 || staged == 0 {
		t.Fatalf("fixture holds %d buffered and %d staged flits, want both non-zero", buffered, staged)
	}
	deepest, inStages := 0, 0
	for _, l := range net.Links {
		occupied := 0
		for i := 0; i < l.Delay; i++ {
			stage := l.stage(i)
			for _, run := range stage {
				inStages += runLen(run)
			}
			if len(stage) > 0 {
				occupied++
			}
		}
		deepest = max(deepest, occupied)
	}
	if deepest < wantStages {
		t.Fatalf("no link holds flits in %d stages at once (deepest: %d)", wantStages, deepest)
	}
	if inStages != staged {
		t.Fatalf("delay lines account for %d flits, rings hold %d staged", inStages, staged)
	}
	// Mid-flight: every staged run, whatever its stage, counts exactly once.
	if err := net.CheckCredits(); err != nil {
		t.Fatal(err)
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
