// Package traffic implements the synthetic workloads of Sec. 7.2: uniform
// random, uniform-hotspot (communication restricted to a random 10% of the
// node pairs), and the four bit-permutation patterns (shuffle, complement,
// transpose, reverse), plus the locality-scoped uniform traffic of Fig. 18
// and Bernoulli injection processes.
package traffic

import (
	"fmt"
	"math/bits"
	"math/rand"

	"heteroif/internal/fault"
	"heteroif/internal/network"
)

// Driver is a workload driver for network.RunWith: Drive may Offer packets
// at the start of every cycle, and NextInjection implements the quiescence
// fast-forward contract — the earliest cycle ≥ now at which Drive may next
// offer a packet, or a negative value for "never again". Open-loop
// implementations sample or replay a fixed schedule (Generator pins
// NextInjection to now, disabling skips; trace.Replayer exposes trace
// gaps); closed-loop implementations (collective.Engine) gate each step's
// injections on the previous step's deliveries, so their compute phases
// are provably idle network stretches the engine fast-forwards across.
type Driver interface {
	Drive(now int64)
	NextInjection(now int64) int64
}

// Generator implements Driver; trace.Replayer and collective.Engine
// implement it structurally (asserted in their own packages' tests).
var _ Driver = (*Generator)(nil)

// Pattern maps a source node to a destination for one packet. Dest returns
// -1 when the source does not participate in the pattern (it then injects
// nothing).
type Pattern interface {
	Name() string
	Dest(rng *rand.Rand, src, n int) int
}

// Participants reports how many of n sources actually inject under a
// pattern (bit permutations on non-power-of-two systems, fixed points and
// similar exclusions). Saturation detection scales offered load by it.
func Participants(p Pattern, n int) int {
	probe, ok := p.(interface{ Participants(n int) int })
	if ok {
		return probe.Participants(n)
	}
	return n
}

// Participants implements the optional interface for bit permutations:
// sources outside the embedded power-of-two space and fixed points do not
// inject.
func (p *BitPermutation) Participants(n int) int {
	count := 0
	for src := 0; src < n; src++ {
		if p.Dest(nil, src, n) >= 0 {
			count++
		}
	}
	return count
}

// Uniform sends each packet to a uniformly random other node.
type Uniform struct{}

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (Uniform) Dest(rng *rand.Rand, src, n int) int {
	d := rng.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// Hotspot restricts communication to a random fraction of the node pairs
// (Sec. 7.2 uses 10%): every source keeps a fixed random subset of
// destinations and sends uniformly within it, concentrating load on the
// lucky pairs.
type Hotspot struct {
	pairs [][]int
}

// NewHotspot selects ⌈frac·(n−1)⌉ destinations per source with the given
// seed.
func NewHotspot(n int, frac float64, seed int64) *Hotspot {
	// Root keeps the historical stream: hotspot pair selection is part of
	// the published results. Fault draws use fault.Split domains, so the
	// two can never alias under one seed.
	rng := fault.Root(seed)
	k := int(frac*float64(n-1) + 0.999)
	if k < 1 {
		k = 1
	}
	h := &Hotspot{pairs: make([][]int, n)}
	for src := 0; src < n; src++ {
		perm := rng.Perm(n)
		dsts := make([]int, 0, k)
		for _, d := range perm {
			if d == src {
				continue
			}
			dsts = append(dsts, d)
			if len(dsts) == k {
				break
			}
		}
		h.pairs[src] = dsts
	}
	return h
}

// Name implements Pattern.
func (h *Hotspot) Name() string { return "uniform-hotspot" }

// Dest implements Pattern.
func (h *Hotspot) Dest(rng *rand.Rand, src, n int) int {
	if src >= len(h.pairs) || len(h.pairs[src]) == 0 {
		return -1
	}
	return h.pairs[src][rng.Intn(len(h.pairs[src]))]
}

// BitPermutation applies a permutation of the node-index bits. Systems
// whose node count is not a power of two use the largest embedded power of
// two (nodes outside it do not participate), the usual convention for
// permutation traffic on irregular sizes.
type BitPermutation struct {
	name string
	// perm computes the destination from the source index given b index
	// bits.
	perm func(src, b int) int
}

// Name implements Pattern.
func (p *BitPermutation) Name() string { return p.name }

// Dest implements Pattern.
func (p *BitPermutation) Dest(_ *rand.Rand, src, n int) int {
	b := bits.Len(uint(n)) - 1 // floor(log2(n))
	space := 1 << b
	if src >= space {
		return -1
	}
	d := p.perm(src, b)
	if d == src || d >= space {
		return -1
	}
	return d
}

// BitShuffle rotates the address bits left by one: d_i = s_{(i-1) mod b}.
func BitShuffle() *BitPermutation {
	return &BitPermutation{name: "bit-shuffle", perm: func(s, b int) int {
		return ((s << 1) | (s >> (b - 1))) & (1<<b - 1)
	}}
}

// BitComplement inverts every address bit: d_i = ¬s_i.
func BitComplement() *BitPermutation {
	return &BitPermutation{name: "bit-complement", perm: func(s, b int) int {
		return ^s & (1<<b - 1)
	}}
}

// BitTranspose rotates the address bits by b/2: d_i = s_{(i+b/2) mod b}.
func BitTranspose() *BitPermutation {
	return &BitPermutation{name: "bit-transpose", perm: func(s, b int) int {
		h := b / 2
		return ((s >> h) | (s << (b - h))) & (1<<b - 1)
	}}
}

// BitReverse mirrors the address bits: d_i = s_{b-i-1}.
func BitReverse() *BitPermutation {
	return &BitPermutation{name: "bit-reverse", perm: func(s, b int) int {
		d := 0
		for i := 0; i < b; i++ {
			if s&(1<<i) != 0 {
				d |= 1 << (b - 1 - i)
			}
		}
		return d
	}}
}

// patternNames lists the six synthetic patterns of Sec. 7.2 in paper order.
var patternNames = []string{"uniform", "uniform-hotspot", "bit-shuffle", "bit-complement", "bit-transpose", "bit-reverse"}

// Patterns returns the six synthetic patterns of Sec. 7.2 in paper order.
func Patterns(n int, seed int64) []Pattern {
	ps := make([]Pattern, len(patternNames))
	for i, name := range patternNames {
		ps[i], _ = ByName(name, n, seed) // every listed name is known
	}
	return ps
}

// ByName returns a named pattern (uniform, uniform-hotspot, bit-shuffle,
// bit-complement, bit-transpose, bit-reverse). Only the named one is
// built: a hotspot draws n permutations of n nodes.
func ByName(name string, n int, seed int64) (Pattern, error) {
	switch name {
	case "uniform":
		return Uniform{}, nil
	case "uniform-hotspot":
		return NewHotspot(n, 0.10, seed), nil
	case "bit-shuffle":
		return BitShuffle(), nil
	case "bit-complement":
		return BitComplement(), nil
	case "bit-transpose":
		return BitTranspose(), nil
	case "bit-reverse":
		return BitReverse(), nil
	}
	return nil, fmt.Errorf("traffic: unknown pattern %q", name)
}

// Generator injects Bernoulli traffic: each participating node starts a new
// packet each cycle with probability Rate/Length, giving an offered load of
// Rate flits/cycle/node. Rate and Length are read on every Drive call.
type Generator struct {
	Net     *network.Network
	Pattern Pattern
	// Rate is the offered load in flits/cycle/node.
	Rate float64
	// Length is the packet length in flits (NewGenerator sets the
	// config's).
	Length int
	// Class assigned to generated packets.
	Class network.Class
	// Nodes optionally restricts which nodes inject (nil = all).
	Nodes []network.NodeID

	// src is fault.Root(seed)'s stream, stepped inline by Drive; rng reads
	// the same stream for Pattern.Dest.
	src *rngSource
	rng *rand.Rand
	win window // of the last Drive's Rate/Length
}

// NewGenerator builds a generator with its own deterministic random source.
func NewGenerator(net *network.Network, p Pattern, rate float64, seed int64) *Generator {
	g := &Generator{Net: net, Pattern: p, Rate: rate, Length: net.Cfg.PacketLength, src: new(rngSource)}
	// Root's stream keeps the pre-fault injection sequence bit-for-bit;
	// fault-injection randomness lives in disjoint fault.Split streams.
	g.src.Seed(seed)
	g.rng = rand.New(g.src)
	g.win = newWindow(rate / float64(g.Length))
	return g
}

// Drive implements the per-cycle injection callback for network.Run. It
// takes one rand.Float64 draw per injecting node in order, then one
// Pattern.Dest call per node whose draw is below Rate/Length: the stream of
// a per-node rng.Float64() loop, with the draws of nodes that do not inject
// skipped by rngSource.scan.
func (g *Generator) Drive(now int64) {
	n := len(g.Net.Nodes)
	count := n
	if g.Nodes != nil {
		count = len(g.Nodes)
	}
	prob := g.Rate / float64(g.Length)
	if g.win.prob != prob {
		g.win = newWindow(prob)
	}
	for i := 0; ; i++ {
		var v uint64
		if i, v = g.src.scan(i, count, g.win); i == count {
			return
		}
		f := float64(v) / (1 << 63)
		if f == 1 {
			f = g.rng.Float64()
		}
		if f >= prob {
			continue
		}
		src := i
		if g.Nodes != nil {
			src = int(g.Nodes[i])
		}
		dst := g.Pattern.Dest(g.rng, src, n)
		if dst < 0 || dst == src {
			continue
		}
		p := g.Net.NewPacket(network.NodeID(src), network.NodeID(dst), g.Length, now)
		p.Class = g.Class
		g.Net.Offer(p)
	}
}

// NextInjection always returns now: a Bernoulli process samples its RNG for
// every node on every cycle, so no cycle may be fast-forwarded without
// changing the random stream. Callers who want quiescence skipping must use
// a driver with predictable injection times (e.g. trace.Replayer).
func (g *Generator) NextInjection(now int64) int64 { return now }

// LocalUniform is the Fig. 18 locality workload: the chiplet grid is
// partitioned into blocks of BlockChiplets×BlockChiplets chiplets and
// every node communicates uniformly within its own block.
type LocalUniform struct {
	// ChipletsX is the chiplet-grid width; NodesX/NodesY the per-chiplet
	// mesh; GX the global node-grid width.
	ChipletsX, NodesX, NodesY, GX int
	// BlockChiplets is the local communication scale in chiplets.
	BlockChiplets int
}

// Name implements Pattern.
func (l *LocalUniform) Name() string {
	return fmt.Sprintf("local-uniform-%dx%d", l.BlockChiplets, l.BlockChiplets)
}

// Dest implements Pattern.
func (l *LocalUniform) Dest(rng *rand.Rand, src, n int) int {
	gx, gy := src%l.GX, src/l.GX
	bw := l.BlockChiplets * l.NodesX // block width in nodes
	bh := l.BlockChiplets * l.NodesY
	bx0, by0 := gx/bw*bw, gy/bh*bh
	// Clip the block to the grid (the grid may not divide evenly).
	gw, gh := l.GX, n/l.GX
	w := min(bw, gw-bx0)
	hgt := min(bh, gh-by0)
	if w*hgt < 2 {
		return -1
	}
	for {
		dx := bx0 + rng.Intn(w)
		dy := by0 + rng.Intn(hgt)
		d := dy*l.GX + dx
		if d != src {
			return d
		}
	}
}
