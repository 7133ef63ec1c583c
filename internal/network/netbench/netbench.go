// Package netbench builds small self-contained systems for benchmarking
// the cycle engine in isolation: an on-chip 2D mesh with dimension-order
// routing and deterministic, schedule-driven load at three operating
// points (idle, low load, saturated). The BenchmarkStep suite and the
// steady-state allocation tests in internal/network run these kernels;
// whole-stack performance is judged by the bench/ harness, and these are
// the micro-cases a number from there gets attributed with. The mesh
// kernels deliberately avoid internal/topology and internal/traffic; the
// many-chiplet kernels (1024 and 4096 nodes) build the paper's hetero-PHY
// torus through internal/topology and internal/routing, but the load stays
// deterministic and schedule-driven — the benchmark measures Network.Step,
// not Bernoulli sampling.
package netbench

import (
	"fmt"
	"runtime"
	"testing"

	"heteroif/internal/collective"
	"heteroif/internal/network"
	"heteroif/internal/routing"
	"heteroif/internal/topology"
)

// Direction indices into xyRouting.ports.
const (
	dirPX = iota
	dirNX
	dirPY
	dirNY
)

// xyRouting is deterministic dimension-order (X then Y) routing on a
// side×side mesh — deadlock-free with a single escape candidate per hop.
type xyRouting struct {
	side   int
	vcMask uint16
	ports  [][4]int
}

func (x *xyRouting) Name() string { return "bench-xy" }

// Stability implements network.Stable: the precomputed port table makes
// Route a function of (router, destination) alone, so the engine memoizes
// its candidates per VC — the benchmark then measures the memoized hot
// path, which is what every experiment runs.
func (x *xyRouting) Stability() network.RouteStability { return network.RouteRetryStable }

func (x *xyRouting) Route(_ *network.Network, r *network.Router, _ int, pkt *network.Packet, buf []network.Candidate) []network.Candidate {
	id := int(r.ID)
	cx, cy := id%x.side, id/x.side
	d := int(pkt.Dst)
	dx, dy := d%x.side, d/x.side
	var dir int
	switch {
	case dx > cx:
		dir = dirPX
	case dx < cx:
		dir = dirNX
	case dy > cy:
		dir = dirPY
	default:
		dir = dirNY
	}
	return append(buf, network.Candidate{Port: x.ports[id][dir], VCMask: x.vcMask, Escape: true})
}

// BuildMesh constructs a side×side on-chip mesh with XY routing, finalized
// and ready to step. The configuration is the paper's Table 2 defaults
// with invariant checks off (benchmark mode).
func BuildMesh(side int) *network.Network {
	cfg := network.DefaultConfig()
	net, err := network.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("netbench: %v", err))
	}
	n := side * side
	net.AddNodes(n)
	rt := &xyRouting{side: side, vcMask: uint16(1<<cfg.VCs) - 1, ports: make([][4]int, n)}
	connect := func(a, b, dir int) {
		l := net.Connect(network.KindOnChip, network.NodeID(a), network.NodeID(b))
		rt.ports[a][dir] = l.SrcPort
	}
	for y := 0; y < side; y++ {
		for xx := 0; xx < side; xx++ {
			id := y*side + xx
			if xx+1 < side {
				connect(id, id+1, dirPX)
				connect(id+1, id, dirNX)
			}
			if y+1 < side {
				connect(id, id+side, dirPY)
				connect(id+side, id, dirNY)
			}
		}
	}
	net.Routing = rt
	net.Finalize()
	// Declare mesh-row starts as preferred shard cuts for parallel cases
	// (the single-chiplet analogue of topology.Topo.ShardCuts).
	cuts := make([]int, 0, side-1)
	for b := side; b < n; b += side {
		cuts = append(cuts, b)
	}
	net.SetShardCuts(cuts)
	return net
}

// BuildHeteroTorus constructs a chipletsX×chipletsY hetero-PHY 2D-torus
// of nodesX×nodesY-node chiplets (the paper's Fig. 6a system) with its
// production routing algorithm and chiplet-row shard cuts declared,
// finalized and ready to step. This is the many-chiplet regime where
// parallel stepping must win — the 1024- and 4096-node kernel cases.
func BuildHeteroTorus(chipletsX, chipletsY, nodesX, nodesY int) *network.Network {
	cfg := network.DefaultConfig()
	net, topo, err := topology.Build(cfg, topology.Spec{
		System:    topology.HeteroPHYTorus,
		ChipletsX: chipletsX, ChipletsY: chipletsY,
		NodesX: nodesX, NodesY: nodesY,
	})
	if err != nil {
		panic(fmt.Sprintf("netbench: %v", err))
	}
	alg, err := routing.ForSystem(topo, &net.Cfg)
	if err != nil {
		panic(fmt.Sprintf("netbench: %v", err))
	}
	net.Routing = alg
	net.Finalize()
	net.SetShardCuts(topo.ShardCuts())
	return net
}

// Schedule is a deterministic low-load driver: every Interval cycles one
// node sends one packet across the mesh. Between events the network drains
// completely, so an activity-tracked engine can fast-forward the gaps.
// NextInjection exposes the schedule to Network.RunWith.
type Schedule struct {
	Net      *network.Network
	Interval int64
	Length   int
	k        int64
}

// Drive implements the per-cycle injection callback for Network.RunWith.
func (s *Schedule) Drive(now int64) {
	if now%s.Interval != 0 {
		return
	}
	n := len(s.Net.Nodes)
	src := int((s.k * 7) % int64(n))
	dst := (src + n/2 + int(s.k%3)) % n
	if dst == src {
		dst = (dst + 1) % n
	}
	s.Net.Offer(s.Net.NewPacket(network.NodeID(src), network.NodeID(dst), s.Length, now))
	s.k++
}

// NextInjection reports the next cycle ≥ now at which Drive may offer a
// packet: the next multiple of Interval.
func (s *Schedule) NextInjection(now int64) int64 {
	return (now + s.Interval - 1) / s.Interval * s.Interval
}

// Saturator keeps every source queue non-empty so the mesh runs at its
// saturation throughput: whenever the backlog of undelivered-and-uninjected
// packets drops below one per node it tops every queue up by one packet.
type Saturator struct {
	Net     *network.Network
	Length  int
	offered int64
}

// Drive implements the per-cycle injection callback.
func (d *Saturator) Drive(now int64) {
	n := int64(len(d.Net.Nodes))
	if d.offered-d.Net.PacketsInjected() >= n {
		return
	}
	for src := int64(0); src < n; src++ {
		dst := (src + n/2 + now%7) % n
		if dst == src {
			dst = (dst + 1) % n
		}
		d.Net.Offer(d.Net.NewPacket(network.NodeID(src), network.NodeID(dst), d.Length, now))
	}
	d.offered += n
}

// Case is one kernel benchmark: a named operating point and the function
// that measures it, reporting a cycles/sec metric next to ns/op.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// lowLoadChunk is how many cycles one low-load benchmark op simulates; it
// spans several Schedule events so fast-forward gaps dominate, as they do
// in the low-load half of a latency sweep.
const lowLoadChunk = 1024

// Saturate drives net to steady-state saturation and returns the driver.
// The warmup deepens with network size: a many-chiplet torus overshoots
// its steady in-flight population during the first few thousand cycles
// (credit backpressure has not propagated yet) and needs several sweeps
// for the packet pool and buffer occupancy to settle.
func Saturate(net *network.Network) *Saturator {
	sat := &Saturator{Net: net, Length: net.Cfg.PacketLength}
	warm := int64(2000)
	if n := int64(len(net.Nodes)); n > 256 {
		warm = 2000 + 6*n
	}
	for net.Now < warm {
		sat.Drive(net.Now)
		net.Step()
	}
	return sat
}

// Cases returns the kernel benchmark suite: idle, low-load and saturated
// meshes at 16, 64 and 256 nodes, and at 256 nodes the saturated mesh
// with parallel stepping across 2 workers (smaller meshes are one 64-node
// wake word, hence one shard with routers).
func Cases() []Case {
	var cs []Case
	for _, side := range []int{4, 8, 16} {
		side := side
		n := side * side
		cs = append(cs,
			Case{
				Name: fmt.Sprintf("idle/%dnodes", n),
				Bench: func(b *testing.B) {
					net := BuildMesh(side)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						net.Step()
					}
					reportCyclesPerSec(b, 1)
				},
			},
			Case{
				Name: fmt.Sprintf("lowload/%dnodes", n),
				Bench: func(b *testing.B) {
					net := BuildMesh(side)
					sched := &Schedule{Net: net, Interval: 200, Length: net.Cfg.PacketLength}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := net.RunWith(lowLoadChunk, sched.Drive, sched.NextInjection); err != nil {
							b.Fatal(err)
						}
					}
					reportCyclesPerSec(b, lowLoadChunk)
				},
			},
			Case{
				Name: fmt.Sprintf("saturated/%dnodes", n),
				Bench: func(b *testing.B) {
					net := BuildMesh(side)
					sat := Saturate(net)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sat.Drive(net.Now)
						net.Step()
					}
					reportCyclesPerSec(b, 1)
				},
			},
		)
		if n >= 256 {
			const workers = 2
			cs = append(cs, satparCase(n, workers, func() *network.Network { return BuildMesh(side) }))
		}
	}
	// Many-chiplet hetero-PHY tori: the regime the paper's systems target
	// and where parallel stepping has cores to use: each satpar case reads
	// against its saturated/<n>nodes twin.
	for _, tc := range []struct {
		cx, cy, nx, ny int
		workers        []int
	}{
		{4, 4, 8, 8, []int{2, 4}}, // 1024 nodes
		{8, 8, 8, 8, []int{4}},    // 4096 nodes
	} {
		tc := tc
		n := tc.cx * tc.nx * tc.cy * tc.ny
		build := func() *network.Network { return BuildHeteroTorus(tc.cx, tc.cy, tc.nx, tc.ny) }
		cs = append(cs, Case{
			Name: fmt.Sprintf("saturated/%dnodes", n),
			Bench: func(b *testing.B) {
				net := build()
				net.SetWorkers(1) // the one-shard twin, whatever the host
				sat := Saturate(net)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sat.Drive(net.Now)
					net.Step()
				}
				reportCyclesPerSec(b, 1)
			},
		})
		for _, workers := range tc.workers {
			cs = append(cs, satparCase(n, workers, build))
		}
	}
	cs = append(cs, collectiveCase())
	return cs
}

// collectiveCase is the closed-loop workload kernel: one full ring
// all-reduce (16 participants on the 256-node mesh diagonal, 256-flit
// payload, 64-cycle per-chunk reduction) driven to completion per op
// through the RunWith fast-forward hooks. Unlike the open-loop kernels it
// measures the whole dependency-driven pipeline — engine bookkeeping,
// bursty per-step injection, and quiescence skips across the compute
// stretches — so regressions in any of the three show up here first.
func collectiveCase() Case {
	const side = 16
	return Case{
		Name: "collective/256nodes",
		Bench: func(b *testing.B) {
			net := BuildMesh(side)
			ps := make([]network.NodeID, side)
			for i := range ps {
				ps[i] = network.NodeID(i*side + i) // mesh diagonal
			}
			prog := collective.RingAllReduce(ps, 256, 64)
			runOnce := func() {
				eng, err := collective.NewEngine(net, prog)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(1 << 22); err != nil {
					b.Fatal(err)
				}
			}
			runOnce() // warm caches; the network is empty again after
			b.ReportAllocs()
			b.ResetTimer()
			start := net.Now
			for i := 0; i < b.N; i++ {
				runOnce()
			}
			// Per-op simulated cycles are deterministic but not known
			// statically; report from the measured advance.
			if sec := b.Elapsed().Seconds(); sec > 0 && b.N > 0 {
				b.ReportMetric(float64(net.Now-start)/sec, "cycles/sec")
			}
		},
	}
}

// satparCase is one sharded saturated case: it raises GOMAXPROCS to the
// worker count so the shards' goroutines can run at once wherever the host
// has the cores (SetWorkers starts them either way).
func satparCase(n, workers int, build func() *network.Network) Case {
	return Case{
		Name: fmt.Sprintf("satpar/%dnodes/%dworkers", n, workers),
		Bench: func(b *testing.B) {
			prev := runtime.GOMAXPROCS(0)
			if prev < workers {
				runtime.GOMAXPROCS(workers)
				defer runtime.GOMAXPROCS(prev)
			}
			net := build()
			net.SetWorkers(workers)
			sat := Saturate(net)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sat.Drive(net.Now)
				net.Step()
			}
			reportCyclesPerSec(b, 1)
		},
	}
}

func reportCyclesPerSec(b *testing.B, cyclesPerOp int64) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)*float64(cyclesPerOp)/sec, "cycles/sec")
	}
}
