package network_test

import (
	"fmt"
	"runtime"
	"testing"

	"heteroif/internal/collective"
	"heteroif/internal/network"
	"heteroif/internal/network/netbench"
	"heteroif/internal/topology"
)

// lowLoadChunk is how many cycles one low-load benchmark op simulates; it
// spans several Schedule events so fast-forward gaps dominate, as they do
// in the low-load half of a latency sweep.
const lowLoadChunk = 1024

// BenchmarkStep measures the per-cycle cost of the engine at three
// operating points (idle, low-load, saturated) and three mesh sizes
// (16/64/256 nodes), the 256-node mesh also on 2 shards (smaller meshes are
// one 64-node wake word, hence one shard with routers), Fig. 11's saturated
// 256-node hetero-PHY torus on 1 and 2 shards, the saturated 1024-node
// hetero-PHY torus on 1, 2 and 4 shards, and one closed-loop
// collective. These are the micro-cases for attributing a number; whether
// a change is faster is judged by `go run ./bench` ledgers under -compare.
// The low-load cases step through Network.RunWith, so quiescence
// fast-forward is part of what is measured — exactly as a Fig. 11-style
// latency sweep would experience it.
func BenchmarkStep(b *testing.B) {
	for _, side := range []int{4, 8, 16} {
		n := side * side
		b.Run(fmt.Sprintf("idle/%dnodes", n), func(b *testing.B) {
			net := netbench.BuildMesh(side)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
			reportCyclesPerSec(b, 1)
		})
		b.Run(fmt.Sprintf("lowload/%dnodes", n), func(b *testing.B) {
			net := netbench.BuildMesh(side)
			sched := &netbench.Schedule{Net: net, Interval: 200, Length: net.Cfg.PacketLength}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := net.RunWith(lowLoadChunk, sched.Drive, sched.NextInjection); err != nil {
					b.Fatal(err)
				}
			}
			reportCyclesPerSec(b, lowLoadChunk)
		})
		b.Run(fmt.Sprintf("saturated/%dnodes", n), func(b *testing.B) {
			benchSaturated(b, netbench.BuildMesh(side), 1)
		})
	}
	b.Run("satpar/256nodes/2workers", func(b *testing.B) {
		benchSaturated(b, netbench.BuildMesh(16), 2)
	})
	// Fig. 11's system, 4×4 chiplets of 4×4 nodes: four wake words, so
	// two shards write neighbouring words in the same phase.
	fig11 := topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: 4, ChipletsY: 4, NodesX: 4, NodesY: 4}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("satpar/256nodes-heterophy/%dworkers", workers), func(b *testing.B) {
			benchSaturated(b, netbench.Build(fig11), workers)
		})
	}
	// The many-chiplet regime the paper's systems target, where parallel
	// stepping has cores to use: each satpar case reads against the
	// one-shard saturated/1024nodes twin.
	torus := topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: 4, ChipletsY: 4, NodesX: 8, NodesY: 8}
	for _, workers := range []int{1, 2, 4} {
		name := "saturated/1024nodes"
		if workers > 1 {
			name = fmt.Sprintf("satpar/1024nodes/%dworkers", workers)
		}
		b.Run(name, func(b *testing.B) { benchSaturated(b, netbench.Build(torus), workers) })
	}
	b.Run("collective/256nodes", benchCollective)
}

// benchSaturated measures saturated stepping of net on the given shard
// count. It raises GOMAXPROCS to the count so the shards' goroutines can
// run at once wherever the host has the cores (SetWorkers starts them
// either way), and stops the workers once the timer has stopped.
func benchSaturated(b *testing.B, net *network.Network, workers int) {
	if prev := runtime.GOMAXPROCS(0); prev < workers {
		runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
	}
	net.SetWorkers(workers)
	sat := netbench.Saturate(net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sat.Drive(net.Now)
		net.Step()
	}
	b.StopTimer()
	net.SetWorkers(0)
	reportCyclesPerSec(b, 1)
}

// benchCollective is the closed-loop workload kernel: one full ring
// all-reduce (16 participants on the 256-node mesh diagonal, 256-flit
// payload, 64-cycle per-chunk reduction) driven to completion per op
// through the RunWith fast-forward hooks. Unlike the open-loop kernels it
// measures the whole dependency-driven pipeline — engine bookkeeping,
// bursty per-step injection, and quiescence skips across the compute
// stretches — so regressions in any of the three show up here first.
func benchCollective(b *testing.B) {
	const side = 16
	net := netbench.BuildMesh(side)
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
	// Per-op simulated cycles are deterministic but not known statically;
	// report from the measured advance.
	if sec := b.Elapsed().Seconds(); sec > 0 && b.N > 0 {
		b.ReportMetric(float64(net.Now-start)/sec, "cycles/sec")
	}
}

func reportCyclesPerSec(b *testing.B, cyclesPerOp int64) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)*float64(cyclesPerOp)/sec, "cycles/sec")
	}
}
