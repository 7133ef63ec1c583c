package trace

import (
	"testing"

	"heteroif/internal/network"
)

func TestPARSECWorkloadsGenerate(t *testing.T) {
	for _, wl := range PARSECWorkloads() {
		tr, err := GeneratePARSEC(wl, 5000, 1)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if tr.Ranks != 64 {
			t.Fatalf("%s: %d ranks, want 64", wl, tr.Ranks)
		}
		if len(tr.Records) == 0 {
			t.Fatalf("%s: empty trace", wl)
		}
		// Bimodal packet sizes only: 1 flit (8 B) and 9 flits (72 B).
		long, short := 0, 0
		for i := range tr.Records {
			switch tr.Records[i].Flits {
			case 1:
				short++
			case 9:
				long++
			default:
				t.Fatalf("%s: packet length %d, want 1 or 9", wl, tr.Records[i].Flits)
			}
		}
		if long == 0 || short == 0 {
			t.Fatalf("%s: need both packet sizes, got %d short / %d long", wl, short, long)
		}
	}
}

func TestPARSECUnknownWorkload(t *testing.T) {
	if _, err := GeneratePARSEC("doom", 1000, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestPARSECDeterministic(t *testing.T) {
	a, _ := GeneratePARSEC("canneal", 2000, 99)
	b, _ := GeneratePARSEC("canneal", 2000, 99)
	if len(a.Records) != len(b.Records) {
		t.Fatal("same seed produced different traces")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestPARSECRelativeIntensity(t *testing.T) {
	// canneal is the cache-thrashing workload; blackscholes is compute
	// bound — their rates must reflect that (Netrace characterization).
	hot, _ := GeneratePARSEC("canneal", 5000, 1)
	cold, _ := GeneratePARSEC("blackscholes", 5000, 1)
	if hot.OfferedRate() <= 2*cold.OfferedRate() {
		t.Fatalf("canneal (%.4f) should be much hotter than blackscholes (%.4f)",
			hot.OfferedRate(), cold.OfferedRate())
	}
}

func TestCNSProperties(t *testing.T) {
	tr := GenerateCNS(100000, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Ranks != 1024 {
		t.Fatalf("ranks = %d, want 1024", tr.Ranks)
	}
	if len(tr.Records) < 1000000 {
		t.Fatalf("CNS has %d packets, paper says over one million", len(tr.Records))
	}
	// Halo exchange: every destination is a 3D grid neighbor.
	for i := 0; i < len(tr.Records); i += 997 {
		r := &tr.Records[i]
		sx, sy, sz := coordsOf(r.Src)
		dx, dy, dz := coordsOf(r.Dst)
		md := abs(sx-dx) + abs(sy-dy) + abs(sz-dz)
		if md != 1 {
			t.Fatalf("CNS record %d: %d->%d is not a grid neighbor (dist %d)", i, r.Src, r.Dst, md)
		}
	}
}

func TestMOCProperties(t *testing.T) {
	tr := GenerateMOC(100000, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Ranks != 1024 {
		t.Fatalf("ranks = %d, want 1024", tr.Ranks)
	}
	if len(tr.Records) < 1000000 {
		t.Fatalf("MOC has %d packets, paper says over one million", len(tr.Records))
	}
	// Sweep structure: a mix of neighbor and long-range messages.
	long := 0
	for i := range tr.Records {
		r := &tr.Records[i]
		sx, sy, sz := coordsOf(r.Src)
		dx, dy, dz := coordsOf(r.Dst)
		if abs(sx-dx)+abs(sy-dy)+abs(sz-dz) > 1 {
			long++
		}
	}
	frac := float64(long) / float64(len(tr.Records))
	if frac < 0.05 || frac > 0.5 {
		t.Fatalf("long-range fraction %.2f outside the expected MOC band", frac)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := &Trace{Name: "x", Ranks: 4, Cycles: 100}
	tr.Records = []Record{{Time: 0, Src: 0, Dst: 9, Flits: 1}}
	if tr.Validate() == nil {
		t.Error("out-of-range rank accepted")
	}
	tr.Records = []Record{{Time: 0, Src: 1, Dst: 1, Flits: 1}}
	if tr.Validate() == nil {
		t.Error("self-send accepted")
	}
	tr.Records = []Record{{Time: 5, Src: 0, Dst: 1, Flits: 1}, {Time: 2, Src: 0, Dst: 1, Flits: 1}}
	if tr.Validate() == nil {
		t.Error("time disorder accepted")
	}
	tr.Records = []Record{{Time: 0, Src: 0, Dst: 1, Flits: 0}}
	if tr.Validate() == nil {
		t.Error("zero-length packet accepted")
	}
	tr.Records = []Record{{Time: 0, Src: 0, Dst: 1, Flits: network.MaxPacketLength + 1}}
	if tr.Validate() == nil {
		t.Error("packet longer than a flit's 16-bit Seq can index accepted")
	}
	net, err := network.New(network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	net.AddNodes(4)
	if _, err := NewReplayer(tr, net, []network.NodeID{0, 1, 2, 3}, 1); err == nil {
		t.Error("NewReplayer accepted a packet longer than a flit's 16-bit Seq can index")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestOfferedRateDegenerate(t *testing.T) {
	tr := &Trace{Name: "d", Ranks: 0, Cycles: 0}
	if tr.OfferedRate() != 0 {
		t.Error("degenerate trace should offer 0")
	}
}
