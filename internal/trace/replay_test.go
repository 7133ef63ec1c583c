package trace

import (
	"testing"

	"heteroif/internal/network"
)

func testNet(t *testing.T, n int) *network.Network {
	t.Helper()
	cfg := network.DefaultConfig()
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.AddNodes(n)
	return net
}

func TestReplayerInjectsAtTraceTime(t *testing.T) {
	tr := &Trace{Name: "r", Ranks: 4, Cycles: 100, Records: []Record{
		{Time: 0, Src: 0, Dst: 1, Flits: 2},
		{Time: 10, Src: 2, Dst: 3, Flits: 1},
		{Time: 10, Src: 1, Dst: 0, Flits: 3},
		{Time: 50, Src: 3, Dst: 2, Flits: 1},
	}}
	net := testNet(t, 4)
	rep, err := NewReplayer(tr, net, []network.NodeID{0, 1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkAt := map[int64]int{0: 1, 9: 1, 10: 3, 49: 3, 50: 4}
	for now := int64(0); now <= 60; now++ {
		rep.Drive(now)
		if want, ok := checkAt[now]; ok {
			if got := net.QueuedPackets(); got != want {
				t.Fatalf("cycle %d: %d packets offered, want %d", now, got, want)
			}
		}
	}
	if rep.NextInjection(0) != -1 {
		t.Fatal("replayer not done after trace end")
	}
}

func TestReplayerSpeedup(t *testing.T) {
	tr := &Trace{Name: "s", Ranks: 2, Cycles: 100, Records: []Record{
		{Time: 40, Src: 0, Dst: 1, Flits: 1},
	}}
	net := testNet(t, 2)
	rep, _ := NewReplayer(tr, net, []network.NodeID{0, 1}, 4)
	rep.Drive(9)
	if net.QueuedPackets() != 0 {
		t.Fatal("packet released before compressed time")
	}
	rep.Drive(10) // 40/4
	if net.QueuedPackets() != 1 {
		t.Fatal("packet not released at compressed time")
	}
}

func TestReplayerSkipsColocatedRanks(t *testing.T) {
	tr := &Trace{Name: "c", Ranks: 4, Cycles: 10, Records: []Record{
		{Time: 0, Src: 0, Dst: 2, Flits: 1}, // both map to node 0
		{Time: 0, Src: 0, Dst: 1, Flits: 1},
	}}
	net := testNet(t, 2)
	m := []network.NodeID{0, 1, 0, 1} // wrap mapping
	rep, err := NewReplayer(tr, net, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep.Drive(0)
	if got := net.QueuedPackets(); got != 1 {
		t.Fatalf("co-located send not skipped: %d packets", got)
	}
}

func TestReplayerRejectsBadMapping(t *testing.T) {
	tr := &Trace{Name: "b", Ranks: 4, Cycles: 10}
	net := testNet(t, 2)
	if _, err := NewReplayer(tr, net, []network.NodeID{0, 1}, 1); err == nil {
		t.Fatal("short mapping accepted")
	}
	if _, err := NewReplayer(tr, net, []network.NodeID{0, 1, 2, 9}, 1); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestActualOfferedRateExcludesWarmup(t *testing.T) {
	tr := &Trace{Name: "w", Ranks: 2, Cycles: 100, Records: []Record{
		{Time: 5, Src: 0, Dst: 1, Flits: 4},  // during warm-up
		{Time: 60, Src: 1, Dst: 0, Flits: 8}, // measured
	}}
	net := testNet(t, 2)
	rep, _ := NewReplayer(tr, net, []network.NodeID{0, 1}, 1)
	rep.MeasureFrom = 50
	for now := int64(0); now <= 100; now++ {
		rep.Drive(now)
	}
	// Only the 8-flit packet counts, over the 50-cycle window, 2 nodes.
	if got, want := rep.ActualOfferedRate(100, 2), 8.0/50/2; got != want {
		t.Fatalf("offered = %v, want %v", got, want)
	}
}
