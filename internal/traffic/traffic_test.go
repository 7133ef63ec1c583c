package traffic

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"heteroif/internal/network"
)

func TestUniformNeverSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := Uniform{}
	for i := 0; i < 10000; i++ {
		src := rng.Intn(64)
		d := u.Dest(rng, src, 64)
		if d == src || d < 0 || d >= 64 {
			t.Fatalf("uniform dest %d for src %d", d, src)
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u := Uniform{}
	seen := make(map[int]bool)
	for i := 0; i < 5000; i++ {
		seen[u.Dest(rng, 0, 16)] = true
	}
	if len(seen) != 15 {
		t.Fatalf("uniform from node 0 reached %d of 15 destinations", len(seen))
	}
}

func TestHotspotRestrictsPairs(t *testing.T) {
	h := NewHotspot(100, 0.10, 42)
	rng := rand.New(rand.NewSource(3))
	for src := 0; src < 100; src++ {
		if got := len(h.pairs[src]); got != 10 {
			t.Fatalf("src %d has %d allowed destinations, want 10%% of 99 → 10", src, got)
		}
		allowed := map[int]bool{}
		for _, d := range h.pairs[src] {
			if d == src || d < 0 || d >= 100 {
				t.Fatalf("src %d has invalid pair destination %d", src, d)
			}
			allowed[d] = true
		}
		for i := 0; i < 50; i++ {
			if d := h.Dest(rng, src, 100); !allowed[d] {
				t.Fatalf("src %d sent outside its pair set: %d", src, d)
			}
		}
	}
	if Participants(h, 100) != 100 {
		t.Fatal("every node participates in hotspot traffic")
	}
}

func TestParticipants(t *testing.T) {
	if got := Participants(Uniform{}, 64); got != 64 {
		t.Fatalf("uniform participants = %d", got)
	}
	// bit-complement on 256 nodes: no fixed points → all participate.
	if got := Participants(BitComplement(), 256); got != 256 {
		t.Fatalf("complement participants = %d", got)
	}
	// 3136 nodes: only the embedded 2048 can participate.
	if got := Participants(BitReverse(), 3136); got > 2048 || got == 0 {
		t.Fatalf("reverse participants on 3136 = %d", got)
	}
}

// permutation patterns are involutions or bijections on the 2^b space;
// every pattern must be a valid permutation.
func TestBitPatternsArePermutations(t *testing.T) {
	for _, p := range []*BitPermutation{BitShuffle(), BitComplement(), BitTranspose(), BitReverse()} {
		n := 256
		seen := make(map[int]bool)
		self := 0
		for src := 0; src < n; src++ {
			d := p.Dest(nil, src, n)
			if d == -1 {
				self++ // fixed point: node does not inject
				continue
			}
			if d < 0 || d >= n {
				t.Fatalf("%s: dest %d out of range", p.Name(), d)
			}
			if seen[d] {
				t.Fatalf("%s: dest %d hit twice", p.Name(), d)
			}
			seen[d] = true
		}
		if len(seen) == 0 {
			t.Fatalf("%s: produced no traffic", p.Name())
		}
	}
}

func TestBitComplementIsInvolution(t *testing.T) {
	p := BitComplement()
	for src := 0; src < 256; src++ {
		d := p.Dest(nil, src, 256)
		if d == -1 {
			continue
		}
		if back := p.Dest(nil, d, 256); back != src {
			t.Fatalf("complement(complement(%d)) = %d", src, back)
		}
	}
}

func TestBitReverseMatchesDefinition(t *testing.T) {
	p := BitReverse()
	// b=8: reverse of 0b00000001 is 0b10000000.
	if d := p.Dest(nil, 1, 256); d != 128 {
		t.Fatalf("reverse(1) = %d, want 128", d)
	}
	if d := p.Dest(nil, 0b00001111, 256); d != 0b11110000 {
		t.Fatalf("reverse(0x0F) = %#x, want 0xF0", d)
	}
}

func TestBitShuffleMatchesDefinition(t *testing.T) {
	p := BitShuffle()
	// d_i = s_{(i-1) mod b} is a rotate-left by one: 0b1000_0000 -> 0b1.
	if d := p.Dest(nil, 128, 256); d != 1 {
		t.Fatalf("shuffle(128) = %d, want 1", d)
	}
}

func TestBitTransposeMatchesDefinition(t *testing.T) {
	p := BitTranspose()
	// b=8, rotate by b/2=4: 0b0000_0001 -> 0b0001_0000.
	if d := p.Dest(nil, 1, 256); d != 16 {
		t.Fatalf("transpose(1) = %d, want 16", d)
	}
}

func TestBitPatternsOnNonPowerOfTwo(t *testing.T) {
	// 3136 nodes: only the embedded 2048-node space participates.
	p := BitReverse()
	for src := 2048; src < 3136; src += 97 {
		if d := p.Dest(nil, src, 3136); d != -1 {
			t.Fatalf("node %d outside the 2^b space injected to %d", src, d)
		}
	}
	active := 0
	for src := 0; src < 2048; src++ {
		if p.Dest(nil, src, 3136) >= 0 {
			active++
		}
	}
	if active == 0 {
		t.Fatal("no traffic in the embedded space")
	}
}

func TestPatternsRegistry(t *testing.T) {
	ps := Patterns(256, 1)
	if len(ps) != 6 {
		t.Fatalf("pattern count %d, want 6 (Sec. 7.2)", len(ps))
	}
	names := []string{"uniform", "uniform-hotspot", "bit-shuffle", "bit-complement", "bit-transpose", "bit-reverse"}
	for i, p := range ps {
		if p.Name() != names[i] {
			t.Errorf("pattern %d = %q, want %q", i, p.Name(), names[i])
		}
		if got, err := ByName(names[i], 256, 1); err != nil || got.Name() != names[i] {
			t.Errorf("ByName(%q): %v", names[i], err)
		}
	}
	if _, err := ByName("nonsense", 256, 1); err == nil {
		t.Error("unknown pattern accepted")
	}
}

// TestByNameBuildsOnlyTheNamedPattern: a hotspot costs n permutations of n
// nodes, so a lookup of any other name must not build one.
func TestByNameBuildsOnlyTheNamedPattern(t *testing.T) {
	const n, seed = 3136, 9
	if got, _ := ByName("uniform-hotspot", n, seed); !reflect.DeepEqual(got, NewHotspot(n, 0.10, seed)) {
		t.Error("ByName(uniform-hotspot) differs from NewHotspot(n, 0.10, seed)")
	}
	for _, name := range patternNames {
		if name == "uniform-hotspot" {
			continue
		}
		if allocs := testing.AllocsPerRun(5, func() { _, _ = ByName(name, n, seed) }); allocs > 2 {
			t.Errorf("ByName(%q) at %d nodes allocates %v times, want O(1)", name, n, allocs)
		}
	}
}

func TestLocalUniformStaysInBlock(t *testing.T) {
	l := &LocalUniform{ChipletsX: 4, NodesX: 7, NodesY: 7, GX: 28, BlockChiplets: 2}
	f := func(a uint16, seed int64) bool {
		n := 28 * 28
		src := int(a) % n
		rng := rand.New(rand.NewSource(seed))
		d := l.Dest(rng, src, n)
		if d < 0 {
			return false
		}
		if d == src {
			return false
		}
		// Same 2×2-chiplet block: block width 14 nodes.
		sx, sy := src%28, src/28
		dx, dy := d%28, d/28
		return sx/14 == dx/14 && sy/14 == dy/14
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorOfferedRate(t *testing.T) {
	// Statistical check: the generator's offered load approximates the
	// requested rate. Packets pile up in the source queues since the
	// network never steps.
	net := newTestNet(t, 16)
	g := NewGenerator(net, Uniform{}, 0.2, 7)
	cycles := int64(20000)
	for now := int64(0); now < cycles; now++ {
		g.Drive(now)
	}
	offered := float64(net.QueuedPackets()*net.Cfg.PacketLength) / float64(cycles) / 16
	if offered < 0.17 || offered > 0.23 {
		t.Fatalf("offered rate %.3f, want ≈0.2", offered)
	}
}

func TestGeneratorNodeSubset(t *testing.T) {
	net := newTestNet(t, 16)
	g := NewGenerator(net, Uniform{}, 0.5, 7)
	g.Nodes = []network.NodeID{3}
	for now := int64(0); now < 1000; now++ {
		g.Drive(now)
	}
	if net.QueuedPackets() == 0 {
		t.Fatal("restricted generator produced nothing")
	}
}

func TestGeneratorReadsLengthAtDrive(t *testing.T) {
	// Length set after NewGenerator must still give Rate flits/cycle/node:
	// 16 times the packets of the default 16-flit length.
	net := newTestNet(t, 16)
	g := NewGenerator(net, Uniform{}, 0.2, 7)
	g.Length = 1
	cycles := int64(20000)
	for now := int64(0); now < cycles; now++ {
		g.Drive(now)
	}
	offered := float64(net.QueuedPackets()) / float64(cycles) / 16
	if offered < 0.17 || offered > 0.23 {
		t.Fatalf("offered rate %.4f with Length set after NewGenerator, want ≈0.2", offered)
	}
	if l := net.Packet(1).Length; l != 1 {
		t.Fatalf("packet length %d, want 1", l)
	}
}

// offer is what Drive hands the network for one packet.
type offer struct {
	cycle    int64
	src, dst network.NodeID
	length   int
}

// offered lists the packets a never-stepped network holds, in creation
// order: with no deliveries, packet refs are handed out 1, 2, 3, ….
func offered(net *network.Network) []offer {
	out := make([]offer, net.QueuedPackets())
	for i := range out {
		p := net.Packet(network.PacketRef(i + 1))
		out[i] = offer{p.CreatedAt, p.Src, p.Dst, p.Length}
	}
	return out
}

// refDrive is the per-node Bernoulli loop Drive replaced, kept as the
// reference its inline scan must reproduce offer for offer.
func refDrive(rng *rand.Rand, p Pattern, nodes []network.NodeID, n int, prob float64, length int, now int64, out []offer) []offer {
	if nodes == nil {
		nodes = make([]network.NodeID, n)
		for i := range nodes {
			nodes[i] = network.NodeID(i)
		}
	}
	for _, src := range nodes {
		if rng.Float64() >= prob {
			continue
		}
		dst := p.Dest(rng, int(src), n)
		if dst < 0 || dst == int(src) {
			continue
		}
		out = append(out, offer{now, src, network.NodeID(dst), length})
	}
	return out
}

// checkAgainstRef drives g for cycles cycles on its fresh network and the
// reference loop on ref (a copy of g's stream), then compares the offers
// and the streams' next draw.
func checkAgainstRef(t *testing.T, name string, g *Generator, ref *rand.Rand, cycles int64) {
	t.Helper()
	var want []offer
	prob := g.Rate / float64(g.Length)
	for now := int64(0); now < cycles; now++ {
		g.Drive(now)
		want = refDrive(ref, g.Pattern, g.Nodes, len(g.Net.Nodes), prob, g.Length, now, want)
	}
	got := offered(g.Net)
	if len(got) != len(want) {
		t.Fatalf("%s: Drive offered %d packets, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: offer %d = %+v, reference %+v", name, i, got[i], want[i])
		}
	}
	if a, b := g.rng.Int63(), ref.Int63(); a != b {
		t.Fatalf("%s: streams diverged after the offers: next draw %d, reference %d", name, a, b)
	}
}

func TestGeneratorMatchesPerNodeLoop(t *testing.T) {
	const n, seed = 64, 5
	pats := append(Patterns(n, seed), &LocalUniform{ChipletsX: 4, NodesX: 2, NodesY: 2, GX: 8, BlockChiplets: 2})
	subset := []network.NodeID{63, 0, 7, 8, 9, 31, 40, 40}
	// 16 and 24 flits/cycle at 16-flit packets are prob 1 and 1.5.
	for _, rate := range []float64{0, 0.01, 0.45, 16, 24} {
		for _, p := range pats {
			for _, nodes := range [][]network.NodeID{nil, subset} {
				g := NewGenerator(newTestNet(t, n), p, rate, seed)
				g.Nodes = nodes
				name := fmt.Sprintf("%s/rate %v/%d nodes", p.Name(), rate, len(nodes))
				checkAgainstRef(t, name, g, rand.New(rand.NewSource(seed)), 300)
			}
		}
	}
}

// TestGeneratorRedrawsLikeFloat64 plants a draw that Float64 rounds to 1
// and discards as node 5's draw in cycle 0, 1 or 2, on either side of
// prob 1. Bit-complement draws no destinations, so every draw is a node's.
func TestGeneratorRedrawsLikeFloat64(t *testing.T) {
	for _, rate := range []float64{8, 32} {
		for skip := 0; skip < 3; skip++ {
			g := NewGenerator(newTestNet(t, 16), BitComplement(), rate, 3)
			for i := 0; i < 16*skip+5; i++ {
				g.src.Uint64()
			}
			redrawNext(g.src)
			ref := *g.src
			if probe := ref; float64(probe.Int63())/(1<<63) != 1 {
				t.Fatal("the planted draw does not round to 1")
			}
			name := fmt.Sprintf("rate %v/planted after %d draws", rate, 16*skip+5)
			checkAgainstRef(t, name, g, rand.New(&ref), 4)
		}
	}
}

// BenchmarkGeneratorDrive times Drive alone — a draw per node and the
// packets it offers — over 1,000 cycles per iteration on a fresh network
// that never steps, and reports ns per node-cycle.
func BenchmarkGeneratorDrive(b *testing.B) {
	for _, tc := range []struct {
		nodes int
		rate  float64
	}{{3136, 0.01}, {256, 0.45}} {
		b.Run(fmt.Sprintf("%dnodes/rate%v", tc.nodes, tc.rate), func(b *testing.B) {
			const cycles = 1000
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := NewGenerator(newTestNet(b, tc.nodes), Uniform{}, tc.rate, 7)
				b.StartTimer()
				for now := int64(0); now < cycles; now++ {
					g.Drive(now)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cycles*tc.nodes), "ns/node-cycle")
		})
	}
}

func newTestNet(t testing.TB, n int) *network.Network {
	t.Helper()
	cfg := network.DefaultConfig()
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.AddNodes(n)
	return net
}
