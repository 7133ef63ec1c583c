package network_test

// FuzzRefModel is the differential check of the cycle engine: refModel, a
// deliberately naive simulator written from the cycle semantics listed in
// DESIGN.md §3 ("Cycle semantics"), replays the same open-loop packet
// schedule as the engine, and the two must agree packet by packet.
//
// The model owns its state in plain slices and scans densely: every router,
// port and VC is visited and every hetero-PHY adapter ticked on every
// cycle, and Route is called on every VC-allocation attempt. It has no wake
// lists, work bitmaps, candidate memo, parking, ring staging, slabs, shards
// or fast-forward. It borrows only Config arithmetic, the routing functions
// and a second, never-stepped build of the same system, which supplies the
// port wiring, the packets and fresh adapters (driven through
// network.Adapter alone). Fault injection and link-layer retry are not
// modelled.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"heteroif/internal/core"
	"heteroif/internal/experiments"
	"heteroif/internal/network"
	"heteroif/internal/topology"
)

// refMesh is the refCase.System value of the hand-wired mesh; 0–4 are the
// Table 2 systems in topology.System order.
const refMesh = 5

// refCase is one decoded fuzz input: a system, a configuration and the
// parameters of an open-loop packet schedule. Every byte string decodes to
// a runnable case.
type refCase struct {
	System uint8 // System % 6: topology.System, or refMesh
	// Shape: Table 2 systems take 3×3-node chiplets when bit 0 is set (2×2
	// otherwise) and a chiplet grid of 2×2, 4×2, 4×4 or 2×1 from bits 1–2;
	// the mesh is 2 + Shape%6 nodes on a side.
	Shape uint8
	// Rows gives the mesh's links between rows y and y+1 the kind
	// refRowKinds[Rows>>(2·(y%4)) & 3].
	Rows   uint8
	VCs    uint8  // 1 + VCs%4
	Bufs   uint8  // on-chip depth refOnChipBufs[Bufs&3], interface depth refIfaceBufs[Bufs>>2&3]
	PktLen uint8  // refLengths[PktLen % len]
	Mix    uint8  // class mix, see refClass
	Policy uint8  // hetero-PHY policy refPolicies[Policy%4]
	Flags  uint8  // bit 0: WormholeAdmission; bit 1: shift pattern instead of uniform; bit 2: see refXY.yxOdd
	Rate   uint8  // offered load, Rate/100 flits per node per cycle
	Cycles uint16 // run length 100 + Cycles%1401, capped at 72,000 node-cycles
	Seed   uint32 // schedule seed
}

var (
	refRowKinds   = [4]network.LinkKind{network.KindOnChip, network.KindParallel, network.KindSerial, network.KindOnChip}
	refOnChipBufs = [4]int{32, 4, 8, 16}
	refIfaceBufs  = [4]int{64, 8, 16, 32}
	refLengths    = [6]int{1, 16, 100, 2, 5, 4}
	refPolicies   = [4]core.Policy{core.Balanced{}, core.PerformanceFirst{}, core.EnergyEfficient{}, core.ApplicationAware{}}
	refGrids      = [4][2]int{{2, 2}, {4, 2}, {4, 4}, {2, 1}}
)

const refCaseBytes = 16

func (c refCase) encode() []byte {
	return []byte{c.System, c.Shape, c.Rows, c.VCs, c.Bufs, c.PktLen, c.Mix, c.Policy, c.Flags, c.Rate,
		byte(c.Cycles), byte(c.Cycles >> 8), byte(c.Seed), byte(c.Seed >> 8), byte(c.Seed >> 16), byte(c.Seed >> 24)}
}

func decodeRefCase(data []byte) refCase {
	var b [refCaseBytes]byte
	copy(b[:], data)
	return refCase{
		System: b[0] % 6, Shape: b[1], Rows: b[2], VCs: b[3], Bufs: b[4], PktLen: b[5], Mix: b[6],
		Policy: b[7], Flags: b[8], Rate: b[9],
		Cycles: uint16(b[10]) | uint16(b[11])<<8,
		Seed:   uint32(b[12]) | uint32(b[13])<<8 | uint32(b[14])<<16 | uint32(b[15])<<24,
	}
}

// cycles is the run length on a system of the given size. The cap keeps
// one fuzz execution under about a second.
func (c refCase) cycles(nodes int) int64 { return min(100+int64(c.Cycles%1401), 72000/int64(nodes)) }

func (c refCase) length() int { return refLengths[int(c.PktLen)%len(refLengths)] }

func (c refCase) config() network.Config {
	cfg := network.DefaultConfig()
	cfg.VCs = 1 + int(c.VCs%4)
	cfg.OnChipBufPerVC = refOnChipBufs[c.Bufs&3]
	cfg.IfaceBufPerVC = refIfaceBufs[c.Bufs>>2&3]
	cfg.PacketLength = c.length()
	cfg.WormholeAdmission = c.Flags&1 != 0
	cfg.DeadlockThreshold = 300
	cfg.WarmupCycles = 0
	return cfg
}

func (c refCase) String() string {
	sys := "mesh"
	if c.System != refMesh {
		sys = topology.System(c.System).String()
	}
	cfg := c.config()
	return fmt.Sprintf("%s shape %d rows %#x, %d VCs, bufs %d/%d, %d-flit packets, mix %d, policy %s, wormhole %v, shift %v, rate %.2f, seed %d",
		sys, c.Shape, c.Rows, cfg.VCs, cfg.OnChipBufPerVC, cfg.IfaceBufPerVC, cfg.PacketLength, c.Mix%4,
		refPolicies[c.Policy%4].Name(), cfg.WormholeAdmission, c.Flags&2 != 0, float64(c.Rate)/100, c.Seed)
}

// build constructs the case's system cut into the given number of shards:
// a Table 2 system through experiments.Build, or the hand-wired mesh.
func (c refCase) build(shards int) (*network.Network, error) {
	cfg := c.config()
	cfg.Workers = shards
	if c.System == refMesh {
		return buildRefMesh(cfg, 2+int(c.Shape%6), c.Flags&4 != 0, func(y int) network.LinkKind {
			return refRowKinds[c.Rows>>(2*(y%4))&3]
		})
	}
	grid, side := refGrids[c.Shape>>1&3], 2+int(c.Shape&1)
	in, err := experiments.Build(cfg, topology.Spec{
		System:    topology.System(c.System),
		ChipletsX: grid[0], ChipletsY: grid[1], NodesX: side, NodesY: side,
		Policy: refPolicies[c.Policy%4],
	})
	if err != nil {
		return nil, err
	}
	return in.Net, nil
}

// refClass draws a packet's class: mix 0 is all best-effort, 1 a uniform
// draw of the four classes, 2 latency-sensitive and throughput halves, 3
// all in-order.
func refClass(mix uint8, rng *rand.Rand) network.Class {
	switch mix % 4 {
	case 1:
		return network.Class(rng.Intn(4))
	case 2:
		return []network.Class{network.ClassLatencySensitive, network.ClassThroughput}[rng.Intn(2)]
	case 3:
		return network.ClassInOrder
	}
	return network.ClassBestEffort
}

// refOffer is one scheduled packet.
type refOffer struct {
	at       int64
	src, dst network.NodeID
	class    network.Class
}

// schedule draws the open-loop packet schedule: each cycle every node
// offers a packet with probability rate/length, to a uniform destination
// or to the shifted one (src + n/2 + cycle%7) of the old saturation driver.
func (c refCase) schedule(n int) []refOffer {
	rng := rand.New(rand.NewSource(int64(c.Seed)))
	p := min(1, float64(c.Rate)/100/float64(c.length()))
	var offers []refOffer
	for at := int64(0); at < c.cycles(n); at++ {
		for src := 0; src < n; src++ {
			if rng.Float64() >= p {
				continue
			}
			var dst int
			if c.Flags&2 != 0 {
				dst = (src + n/2 + int(at%7)) % n
				if dst == src {
					dst = (dst + 1) % n
				}
			} else if dst = rng.Intn(n - 1); dst >= src {
				dst++
			}
			offers = append(offers, refOffer{at, network.NodeID(src), network.NodeID(dst), refClass(c.Mix, rng)})
		}
	}
	return offers
}

// refDigest is one delivered packet's observable outcome.
type refDigest struct {
	id                      uint64
	created, injected, arrv int64
	hops                    [4]int32 // on-chip, parallel, serial, hetero-PHY
	energy                  [3]float64
}

// refOutcome is what one run ends with, engine or model.
type refOutcome struct {
	digests    []refDigest // in Sink order
	vaFailures uint64
	grants     [8]uint64
	inFlight   int64
	injected   int64
	deadlockAt int64
	routeCalls int64
}

// countingRouting counts Route calls on the engine side, keeping the
// wrapped algorithm's declared stability.
type countingRouting struct {
	network.Routing
	calls atomic.Int64
}

func (c *countingRouting) Route(net *network.Network, r *network.Router, inPort int, pkt *network.Packet, buf []network.Candidate) []network.Candidate {
	c.calls.Add(1)
	return c.Routing.Route(net, r, inPort, pkt, buf)
}

func (c *countingRouting) Stability() network.RouteStability {
	if s, ok := c.Routing.(network.Stable); ok {
		return s.Stability()
	}
	return network.RouteDynamic
}

// runEngine replays the schedule on the engine, checking credit
// conservation every 97 cycles.
func runEngine(t *testing.T, c refCase, offers []refOffer, shards int, fastForward bool) refOutcome {
	net, err := c.build(shards)
	if err != nil {
		t.Fatalf("%v: %d shards: %v", c, shards, err)
	}
	defer net.SetWorkers(1)
	rt := &countingRouting{Routing: net.Routing}
	net.Routing = rt
	var out refOutcome
	net.Sink = func(p *network.Packet) {
		out.digests = append(out.digests, refDigest{p.ID, p.CreatedAt, p.InjectedAt, p.ArrivedAt,
			[4]int32{p.HopsOnChip, p.HopsParallel, p.HopsSerial, p.HopsHetero},
			[3]float64{p.EnergyPJ, p.EnergyOnChipPJ, p.EnergyIfacePJ}})
	}
	next := 0
	drive := func(now int64) {
		for ; next < len(offers) && offers[next].at == now; next++ {
			o := offers[next]
			p := net.NewPacket(o.src, o.dst, c.length(), now)
			p.Class = o.class
			net.Offer(p)
		}
	}
	var nextOffer func(int64) int64
	if fastForward {
		nextOffer = func(int64) int64 {
			if next < len(offers) {
				return offers[next].at
			}
			return -1
		}
	}
	for end := c.cycles(len(net.Nodes)); net.Now < end; {
		runErr := net.RunWith(min(97, end-net.Now), drive, nextOffer)
		if err := net.CheckCredits(); err != nil {
			t.Fatalf("%d shards, fast-forward %v, cycle %d: %v", shards, fastForward, net.Now, err)
		}
		if runErr != nil {
			break
		}
	}
	out.vaFailures, out.grants = net.VAFailures, net.GrantsByKind
	out.inFlight, out.injected = net.InFlightFlits(), net.PacketsInjected()
	out.deadlockAt, out.routeCalls = net.DeadlockAt, rt.calls.Load()
	return out
}

// refCorpus is FuzzRefModel's seed corpus; plain go test runs every entry.
var refCorpus = []refCase{
	// The saturated 6×6 on-chip XY mesh: 1 flit/node/cycle offered with
	// the shift pattern for 1,500 cycles keeps every source backlogged.
	{System: refMesh, Shape: 4, VCs: 1, PktLen: 1, Flags: 2, Rate: 100, Cycles: 1400, Seed: 1},
	// The mixed mesh: X on-chip, rows alternately parallel and serial.
	{System: refMesh, Shape: 4, Rows: 0x99, VCs: 1, PktLen: 1, Mix: 1, Rate: 40, Cycles: 600, Seed: 2},
	// Every Table 2 system at 2×2 chiplets of 2×2 and 3×3 nodes, VCs 1, 2
	// and 4, packets of 1, 16 and 100 flits, loads from 0.02 to past
	// saturation; the hetero-PHY torus under all four policies.
	{System: 0, Shape: 0, VCs: 0, PktLen: 0, Rate: 2, Cycles: 600, Seed: 3},
	{System: 0, Shape: 1, VCs: 3, PktLen: 1, Mix: 1, Rate: 60, Cycles: 400, Seed: 4},
	{System: 1, Shape: 0, VCs: 1, PktLen: 2, Mix: 2, Rate: 30, Cycles: 600, Seed: 5},
	{System: 1, Shape: 1, VCs: 0, PktLen: 1, Rate: 20, Cycles: 400, Seed: 6},
	{System: 2, Shape: 0, VCs: 1, PktLen: 1, Mix: 1, Policy: 0, Rate: 50, Cycles: 400, Seed: 7},
	{System: 2, Shape: 1, VCs: 1, PktLen: 1, Policy: 1, Rate: 30, Cycles: 400, Seed: 8},
	{System: 2, Shape: 1, VCs: 3, PktLen: 0, Mix: 2, Policy: 2, Rate: 20, Cycles: 400, Seed: 9},
	{System: 2, Shape: 0, VCs: 1, PktLen: 2, Mix: 2, Policy: 3, Rate: 60, Cycles: 600, Seed: 10},
	{System: 3, Shape: 0, VCs: 0, PktLen: 1, Rate: 30, Seed: 11}, // one VC: Build refuses it
	{System: 3, Shape: 0, VCs: 1, PktLen: 1, Mix: 1, Rate: 30, Cycles: 400, Seed: 12},
	{System: 3, Shape: 1, VCs: 3, PktLen: 1, Rate: 70, Cycles: 400, Seed: 13},
	{System: 4, Shape: 0, VCs: 0, PktLen: 1, Rate: 20, Cycles: 400, Seed: 14},
	{System: 4, Shape: 1, VCs: 1, PktLen: 2, Mix: 1, Rate: 40, Cycles: 600, Seed: 15},
	// Wormhole admission with 4-flit on-chip buffers, past saturation.
	{System: 2, Shape: 1, VCs: 1, Bufs: 1, PktLen: 1, Mix: 1, Flags: 1, Rate: 60, Cycles: 400, Seed: 16},
	// XY and YX routes sharing one VC on a 3×3 mesh: the watchdog fires.
	{System: refMesh, Shape: 1, VCs: 0, PktLen: 1, Flags: 6, Rate: 150, Cycles: 500, Seed: 1},
	// Two systems of 144 nodes, so 2 and 4 shards really split them.
	{System: 2, Shape: 5, VCs: 1, PktLen: 1, Mix: 1, Rate: 40, Cycles: 200, Seed: 17},
	{System: 4, Shape: 5, VCs: 1, PktLen: 1, Mix: 3, Rate: 40, Cycles: 200, Seed: 18},
}

func FuzzRefModel(f *testing.F) {
	for _, c := range refCorpus {
		f.Add(c.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRefCase(t, decodeRefCase(data))
	})
}

// checkRefCase runs the model once and the engine at 1, 2 and 4 shards
// with fast-forward on and off, and requires the same outcome from each.
func checkRefCase(t *testing.T, c refCase) {
	spare, err := c.build(1)
	if c.System == uint8(topology.UniformSerialHypercube) && c.config().VCs < 2 {
		if err == nil || !strings.Contains(err.Error(), "VC0") || !strings.Contains(err.Error(), "VC1") {
			t.Fatalf("%v: Build returned %v, want the one-VC hypercube refused by its phase classes", c, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	offers := c.schedule(len(spare.Nodes))
	m := newRefModel(spare, offers, c.length())
	cycles := c.cycles(len(spare.Nodes))
	want := m.run(cycles)
	if m.err != nil {
		t.Fatalf("%v: model: %v", c, m.err)
	}
	if len(offers) > 0 && offers[0].at+500 <= cycles && want.deadlockAt < 0 && len(want.digests) == 0 {
		t.Fatalf("%v: nothing delivered; the comparison would be vacuous", c)
	}
	t.Logf("%v: %d cycles, %d of %d packets delivered, %d VA failures, watchdog %d, %d Route calls, %d of them retries",
		c, cycles, len(want.digests), len(offers), want.vaFailures, want.deadlockAt, want.routeCalls, m.retries)
	for _, shards := range []int{1, 2, 4} {
		for _, ff := range []bool{false, true} {
			got := runEngine(t, c, offers, shards, ff)
			where := fmt.Sprintf("%v, %d cycles: %d shards, fast-forward %v", c, cycles, shards, ff)
			for i := range min(len(got.digests), len(want.digests)) {
				if got.digests[i] != want.digests[i] {
					t.Fatalf("%s: delivery %d diverges:\nengine %+v\n model %+v", where, i, got.digests[i], want.digests[i])
				}
			}
			if len(got.digests) != len(want.digests) {
				t.Fatalf("%s: engine delivered %d packets, model %d", where, len(got.digests), len(want.digests))
			}
			if got.vaFailures != want.vaFailures || got.grants != want.grants {
				t.Fatalf("%s: VA failures %d, grants %v; model %d, %v", where, got.vaFailures, got.grants, want.vaFailures, want.grants)
			}
			if got.inFlight != want.inFlight || got.injected != want.injected {
				t.Fatalf("%s: %d flits in flight, %d packets injected; model %d, %d", where, got.inFlight, got.injected, want.inFlight, want.injected)
			}
			if got.deadlockAt != want.deadlockAt {
				t.Fatalf("%s: watchdog fired at %d, model at %d (-1: never)", where, got.deadlockAt, want.deadlockAt)
			}
			// The engine routes a waiting packet once per hop; the model
			// routes every attempt, so a retry in the model is a call the
			// candidate memo saved.
			if got.routeCalls > want.routeCalls || (m.retries > 0 && got.routeCalls >= want.routeCalls) {
				t.Fatalf("%s: engine made %d Route calls, model %d with %d retries", where, got.routeCalls, want.routeCalls, m.retries)
			}
		}
	}
}

// refXY is dimension-ordered (X then Y) routing on the hand-wired mesh:
// one escape candidate on every VC. With yxOdd, packets to odd nodes go Y
// first; XY and YX routes then share VCs, which can deadlock, and the
// watchdog outcome is compared too.
type refXY struct {
	side, vcs int
	yxOdd     bool
	ports     [][4]int // per node: +X, -X, +Y, -Y output port
}

func (x *refXY) Name() string { return "ref-xy" }

func (x *refXY) Stability() network.RouteStability { return network.RouteRetryStable }

func (x *refXY) Route(_ *network.Network, r *network.Router, _ int, pkt *network.Packet, buf []network.Candidate) []network.Candidate {
	cur, dst := int(r.ID), int(pkt.Dst)
	cx, cy, dx, dy := cur%x.side, cur/x.side, dst%x.side, dst/x.side
	yFirst := x.yxOdd && dst&1 == 1
	dir := 3
	switch {
	case yFirst && dy > cy:
		dir = 2
	case yFirst && dy < cy:
		dir = 3
	case dx > cx:
		dir = 0
	case dx < cx:
		dir = 1
	case dy > cy:
		dir = 2
	}
	return append(buf, network.Candidate{Port: x.ports[cur][dir], VCMask: 1<<x.vcs - 1, Escape: true})
}

// buildRefMesh wires a side×side mesh whose X links are on-chip and whose
// links between rows y and y+1 are of kind rowKind(y).
func buildRefMesh(cfg network.Config, side int, yxOdd bool, rowKind func(y int) network.LinkKind) (*network.Network, error) {
	net, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	net.AddNodes(side * side)
	rt := &refXY{side: side, vcs: cfg.VCs, yxOdd: yxOdd, ports: make([][4]int, side*side)}
	connect := func(kind network.LinkKind, a, b, dir int) {
		rt.ports[a][dir] = net.Connect(kind, network.NodeID(a), network.NodeID(b)).SrcPort
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			id := y*side + x
			if x+1 < side {
				connect(network.KindOnChip, id, id+1, 0)
				connect(network.KindOnChip, id+1, id, 1)
			}
			if y+1 < side {
				connect(rowKind(y), id, id+side, 2)
				connect(rowKind(y), id+side, id, 3)
			}
		}
	}
	net.Routing = rt
	net.Finalize()
	net.SetWorkers(cfg.Workers)
	return net, nil
}

// refModel is the naive reference simulator.
type refModel struct {
	cfg      network.Config
	spare    *network.Network // wiring, packets and adapters; never stepped
	hopBound int
	routers  []refRouter
	links    []*refLink
	sources  [][]*network.Packet // per node, in offer order
	current  []refInjection
	count    map[*network.Packet]*refTraversals

	now                       int64
	flitsIn, flitsOut, pktsIn int64
	moved                     int64
	idle, deadlockAt          int64
	livelocked                bool
	vaFailures                uint64
	grants                    [8]uint64
	routeCalls, retries       int64
	finished                  []*network.Packet
	digests                   []refDigest
	cands                     []network.Candidate
	err                       error
}

type refRouter struct {
	id         network.NodeID
	in         []refIn
	out        []refOut
	rr         int // switch round-robin start slot
	ejectPort  int
	injectPort int
}

type refIn struct {
	link   *refLink // nil: the injection port
	budget int      // flits per cycle through the crossbar
	iface  bool     // die-to-die input: may drain several VCs per cycle
	depth  int
	vcs    []refVC
}

type refVC struct {
	q       []network.Flit
	active  bool // the front packet holds outPort/outVC
	outPort int
	outVC   int
	failed  bool // the last VA attempt for the front packet failed
}

type refOut struct {
	link    *refLink // nil: the ejection port
	iface   bool     // die-to-die output (and ejection): several input VCs per cycle
	depth   int
	credits []int
	held    []bool
}

type refLink struct {
	kind             network.LinkKind
	src, dst         *refRouter
	srcPort, dstPort int
	bw, delay        int
	adapter          network.Adapter
	flits            [][]network.Flit // delay line: flits[0] arrive at the next link phase
	credits          [][]int          // credit delay line, one VC per credit
}

// refInjection is a source's packet in the middle of injection.
type refInjection struct {
	pkt *network.Packet
	seq int
	vc  int
}

// refTraversals counts what the model saw one packet's flits cross.
type refTraversals struct {
	routers int64
	links   [3]uint64 // plain on-chip, parallel and serial links
}

func newRefModel(spare *network.Network, offers []refOffer, length int) *refModel {
	cfg := spare.Cfg
	m := &refModel{cfg: cfg, spare: spare, hopBound: spare.LivelockHopBound, deadlockAt: -1,
		routers: make([]refRouter, len(spare.Nodes)), sources: make([][]*network.Packet, len(spare.Nodes)),
		current: make([]refInjection, len(spare.Nodes)), count: map[*network.Packet]*refTraversals{}}
	for i, r := range spare.Nodes {
		mr := &m.routers[i]
		*mr = refRouter{id: r.ID, in: make([]refIn, len(r.In)), out: make([]refOut, len(r.Out)), ejectPort: r.EjectPort, injectPort: r.InjectPort}
		mr.in[r.InjectPort] = refIn{budget: cfg.InjectionBandwidth, depth: cfg.BufPerVC(network.KindLocal)}
		mr.out[r.EjectPort] = refOut{iface: true}
	}
	for _, l := range spare.Links {
		ml := &refLink{kind: l.Kind, src: &m.routers[l.Src], dst: &m.routers[l.Dst], srcPort: l.SrcPort, dstPort: l.DstPort,
			bw: cfg.Bandwidth(l.Kind), delay: cfg.Delay(l.Kind), adapter: l.Adapter}
		ml.flits, ml.credits = make([][]network.Flit, ml.delay), make([][]int, ml.delay)
		m.links = append(m.links, ml)
		depth := cfg.BufPerVC(l.Kind)
		ml.src.out[l.SrcPort] = refOut{link: ml, iface: l.Kind != network.KindOnChip, depth: depth, credits: make([]int, cfg.VCs)}
		for v := range ml.src.out[l.SrcPort].credits {
			ml.src.out[l.SrcPort].credits[v] = depth
		}
		ml.dst.in[l.DstPort] = refIn{link: ml, budget: ml.bw, iface: l.Kind != network.KindOnChip, depth: depth}
	}
	for i := range m.routers {
		r := &m.routers[i]
		for p := range r.in {
			r.in[p].vcs = make([]refVC, cfg.VCs)
		}
		for p := range r.out {
			r.out[p].held = make([]bool, cfg.VCs)
		}
	}
	for _, o := range offers {
		p := spare.NewPacket(o.src, o.dst, length, o.at)
		p.Class = o.class
		m.sources[o.src] = append(m.sources[o.src], p)
		m.count[p] = &refTraversals{}
	}
	return m
}

// fail records the model's first error; run stops at the end of the cycle.
func (m *refModel) fail(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf("cycle %d: "+format, append([]any{m.now}, args...)...)
	}
}

// run steps the model to the end of the run, the watchdog firing or the
// first error, whichever comes first.
func (m *refModel) run(cycles int64) refOutcome {
	for m.now < cycles && m.deadlockAt < 0 && m.err == nil {
		m.step()
	}
	return refOutcome{digests: m.digests, vaFailures: m.vaFailures, grants: m.grants,
		inFlight: m.flitsIn - m.flitsOut, injected: m.pktsIn, deadlockAt: m.deadlockAt, routeCalls: m.routeCalls}
}

// step is one cycle: link phase, router ticks by ascending node, injection
// by ascending node, then the watchdog.
func (m *refModel) step() {
	m.moved = 0
	for _, l := range m.links {
		if l.adapter != nil {
			l.adapter.Tick(m.now, func(f network.Flit) { m.arrive(l, f) })
		} else {
			due := l.flits[0]
			copy(l.flits, l.flits[1:])
			l.flits[l.delay-1] = nil
			for _, f := range due {
				m.arrive(l, f)
			}
		}
		credits := l.credits[0]
		copy(l.credits, l.credits[1:])
		l.credits[l.delay-1] = nil
		for _, vc := range credits {
			l.src.out[l.srcPort].credits[vc]++
		}
	}
	for i := range m.routers {
		m.tick(&m.routers[i])
	}
	for i := range m.routers {
		m.inject(&m.routers[i])
	}
	for _, p := range m.finished {
		m.retire(p)
	}
	m.finished = m.finished[:0]
	if m.livelocked && m.deadlockAt < 0 {
		m.deadlockAt = m.now
	}
	if m.cfg.DeadlockThreshold > 0 {
		if m.flitsIn > m.flitsOut && m.moved == 0 {
			m.idle++
			if m.idle >= m.cfg.DeadlockThreshold && m.deadlockAt < 0 {
				m.deadlockAt = m.now
			}
		} else {
			m.idle = 0
		}
	}
	m.now++
}

// arrive buffers a flit at the end of its link.
func (m *refModel) arrive(l *refLink, f network.Flit) {
	in := &l.dst.in[l.dstPort]
	vc := &in.vcs[f.VC]
	if len(vc.q) == in.depth {
		m.fail("input buffer overflow at node %d port %d vc %d", l.dst.id, l.dstPort, f.VC)
		return
	}
	vc.q = append(vc.q, f)
	m.moved++
}

// tick is one router's RC, VA and SA.
func (m *refModel) tick(r *refRouter) {
	buffered := 0
	for p := range r.in {
		for v := range r.in[p].vcs {
			buffered += len(r.in[p].vcs[v].q)
		}
	}
	if buffered == 0 {
		return
	}
	for p := range r.in {
		for v := range r.in[p].vcs {
			if vc := &r.in[p].vcs[v]; !vc.active && len(vc.q) > 0 {
				m.allocate(r, p, vc)
			}
		}
	}
	active := false
	for p := range r.in {
		for v := range r.in[p].vcs {
			active = active || r.in[p].vcs[v].active
		}
	}
	if !active {
		return
	}
	total := len(r.in) * m.cfg.VCs
	start := r.rr
	r.rr = (start + 1) % total
	outLeft := make([]int, len(r.out))
	for p, out := range r.out {
		switch {
		case out.link == nil:
			outLeft[p] = m.cfg.EjectionBandwidth
		case out.link.adapter != nil:
			outLeft[p] = out.link.adapter.FreeSlots()
		default:
			outLeft[p] = out.link.bw
		}
	}
	outVCs, inUsed, inVCs := make([]int, len(r.out)), make([]int, len(r.in)), make([]int, len(r.in))
	for k := 0; k < total; k++ {
		slot := (start + k) % total
		m.traverse(r, slot/m.cfg.VCs, slot%m.cfg.VCs, outLeft, outVCs, inUsed, inVCs)
	}
}

// allocate is RC+VA for the head flit at the front of an idle VC.
func (m *refModel) allocate(r *refRouter, inPort int, vc *refVC) {
	head := vc.q[0]
	pkt := m.spare.Packet(head.P)
	if head.Seq != 0 {
		m.fail("node %d port %d: flit %d of packet %d at the front of an idle VC", r.id, inPort, head.Seq, pkt.ID)
		return
	}
	if m.hopBound > 0 && !pkt.Restricted && pkt.Hops() > m.hopBound {
		pkt.Restricted = true
	}
	if pkt.Dst == r.id {
		vc.active, vc.outPort, vc.outVC = true, r.ejectPort, 0
		return
	}
	m.routeCalls++
	if vc.failed {
		m.retries++
	}
	cands := m.spare.Routing.Route(m.spare, m.spare.Nodes[r.id], inPort, pkt, m.cands[:0])
	m.cands = cands
	// Lemma 1's structural precondition: an escape channel on a VC that
	// exists.
	escape := false
	for _, c := range cands {
		escape = escape || (c.Escape && c.VCMask&(1<<m.cfg.VCs-1) != 0)
	}
	if !escape {
		m.fail("routing %q gave packet %d (%d -> %d) at node %d no escape candidate on VCs 0..%d: %+v",
			m.spare.Routing.Name(), pkt.ID, pkt.Src, pkt.Dst, r.id, m.cfg.VCs-1, cands)
		return
	}
	sawAdaptive := false
	for _, c := range cands {
		out := &r.out[c.Port]
		if out.link == nil {
			vc.active, vc.outPort, vc.outVC, vc.failed = true, c.Port, 0, false
			return
		}
		sawAdaptive = sawAdaptive || !c.Escape
		need := min(pkt.Length, out.depth)
		if m.cfg.WormholeAdmission {
			need = 1
		}
		best := -1
		for ov := range out.credits {
			if c.VCMask&(1<<ov) == 0 || out.held[ov] || out.credits[ov] < need {
				continue
			}
			switch {
			case best < 0, pkt.Class == network.ClassLatencySensitive:
				best = ov
			case pkt.Class == network.ClassThroughput:
			case out.credits[ov] > out.credits[best]:
				best = ov
			}
		}
		if best < 0 {
			continue
		}
		if c.Escape && sawAdaptive {
			adaptivePort := false
			for _, a := range cands {
				adaptivePort = adaptivePort || (!a.Escape && a.Port == c.Port)
			}
			if !adaptivePort {
				pkt.Restricted = true
			}
		}
		out.held[best] = true
		vc.active, vc.outPort, vc.outVC, vc.failed = true, c.Port, best, false
		return
	}
	m.vaFailures++
	vc.failed = true
}

// traverse is switch allocation and traversal for one (input port, VC)
// slot: the granted flits move one at a time.
func (m *refModel) traverse(r *refRouter, ip, v int, outLeft, outVCs, inUsed, inVCs []int) {
	in := &r.in[ip]
	vc := &in.vcs[v]
	if !vc.active || len(vc.q) == 0 {
		return
	}
	if inUsed[ip] >= in.budget || (!in.iface && inVCs[ip] > 0) {
		return
	}
	op := vc.outPort
	out := &r.out[op]
	if outLeft[op] <= 0 || (!out.iface && outVCs[op] > 0) {
		return
	}
	budget := min(outLeft[op], in.budget-inUsed[ip])
	if out.link != nil {
		budget = min(budget, out.credits[vc.outVC])
	}
	if budget <= 0 {
		return
	}
	pkt := m.spare.Packet(vc.q[0].P)
	count := m.count[pkt]
	sent := 0
	for sent < budget && len(vc.q) > 0 {
		f := vc.q[0]
		vc.q = vc.q[1:]
		sent++
		count.routers++
		if l := in.link; l != nil {
			l.credits[l.delay-1] = append(l.credits[l.delay-1], v)
		}
		if l := out.link; l == nil {
			m.grants[network.KindLocal]++
		} else {
			if f.Seq == 0 {
				m.hop(pkt, l.kind)
			}
			m.grants[l.kind]++
			out.credits[vc.outVC]--
			f.VC = network.VCID(vc.outVC)
			if l.adapter != nil {
				l.adapter.Accept(m.now, f)
			} else {
				l.flits[l.delay-1] = append(l.flits[l.delay-1], f)
				count.links[l.kind]++
			}
		}
		if f.IsTail(pkt) {
			if out.link == nil {
				m.flitsOut += int64(pkt.Length)
				m.finished = append(m.finished, pkt)
			} else {
				out.held[vc.outVC] = false
			}
			vc.active = false
			break
		}
	}
	outLeft[op] -= sent
	outVCs[op]++
	inUsed[ip] += sent
	inVCs[ip]++
	m.moved += int64(sent)
}

// refMaxHops is the engine's hop bound: a packet that reaches it is a
// routing livelock, and the watchdog reports it that cycle.
const refMaxHops = 1<<16 - 1

// hop counts a head flit leaving through a link of the given kind.
func (m *refModel) hop(pkt *network.Packet, kind network.LinkKind) {
	switch kind {
	case network.KindOnChip:
		pkt.HopsOnChip++
	case network.KindParallel:
		pkt.HopsParallel++
	case network.KindSerial:
		pkt.HopsSerial++
	case network.KindHeteroPHY:
		pkt.HopsHetero++
	}
	m.livelocked = m.livelocked || pkt.Hops() >= refMaxHops
}

// inject moves flits from a node's source queue into its injection port.
func (m *refModel) inject(r *refRouter) {
	in := &r.in[r.injectPort]
	cur := &m.current[r.id]
	budget := m.cfg.InjectionBandwidth
	for budget > 0 {
		if cur.pkt == nil {
			queue := m.sources[r.id]
			if len(queue) == 0 || queue[0].CreatedAt > m.now {
				return
			}
			p := queue[0]
			best := -1
			for v := range in.vcs {
				free := in.depth - len(in.vcs[v].q)
				switch {
				case free == 0:
				case best < 0, p.Class == network.ClassLatencySensitive:
					best = v
				case p.Class == network.ClassThroughput:
				case free > in.depth-len(in.vcs[best].q):
					best = v
				}
			}
			if best < 0 {
				return
			}
			m.sources[r.id] = queue[1:]
			*cur = refInjection{pkt: p, vc: best}
			p.InjectedAt = m.now
			m.pktsIn++
		}
		vc := &in.vcs[cur.vc]
		for budget > 0 && cur.seq < cur.pkt.Length && len(vc.q) < in.depth {
			vc.q = append(vc.q, network.Flit{P: cur.pkt.Ref(), Seq: uint16(cur.seq), VC: network.VCID(cur.vc), Class: cur.pkt.Class})
			cur.seq++
			budget--
			m.flitsIn++
			m.moved++
		}
		if cur.seq < cur.pkt.Length {
			return
		}
		cur.pkt = nil
	}
}

// retire settles an ejected packet's arrival and energy (Sec. 8.3): every
// flit's router traversals and plain-link crossings as the model counted
// them, plus the PHY issues its adapters charged to the packet.
func (m *refModel) retire(p *network.Packet) {
	p.ArrivedAt = m.now
	c := m.count[p]
	tx := network.IssueCounts(p)
	onChip := float64(tx[network.KindOnChip] + c.links[network.KindOnChip])
	parallel := float64(tx[network.KindParallel] + c.links[network.KindParallel])
	serial := float64(tx[network.KindSerial] + c.links[network.KindSerial])
	onChipPJ := float64(c.routers)*m.cfg.RouterPJPerFlit + onChip*m.cfg.FlitPJ(network.KindOnChip)
	ifacePJ := parallel*m.cfg.FlitPJ(network.KindParallel) + serial*m.cfg.FlitPJ(network.KindSerial)
	m.digests = append(m.digests, refDigest{p.ID, p.CreatedAt, p.InjectedAt, p.ArrivedAt,
		[4]int32{p.HopsOnChip, p.HopsParallel, p.HopsSerial, p.HopsHetero},
		[3]float64{onChipPJ + ifacePJ, onChipPJ, ifacePJ}})
}
