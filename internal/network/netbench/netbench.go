// Package netbench builds finalized systems for the tests and engine
// micro-cases (BenchmarkStep) that step a network directly, and drives
// them with deterministic, schedule-driven load — the micro-cases measure
// Network.Step, not Bernoulli sampling. Every system is built the way an
// experiment builds one: topology.Build, its routing algorithm from
// internal/routing, Finalize and the chiplet-row shard cuts. Whole-stack
// performance is judged by the bench/ harness; these are the micro-cases a
// number from there gets attributed with.
package netbench

import (
	"fmt"

	"heteroif/internal/network"
	"heteroif/internal/routing"
	"heteroif/internal/topology"
)

// Build constructs spec's system with the paper's Table 2 defaults and its
// production routing algorithm (routing.ForSystem), finalized, with its
// chiplet-row shard cuts declared and ready to step.
func Build(spec topology.Spec) *network.Network {
	return build(spec, routing.ForSystem)
}

// BuildMesh constructs one side×side chiplet — an on-chip 2D mesh — with
// deterministic dimension-order (X then Y) routing, finalized and ready to
// step. XY routing is deadlock-free with a single escape candidate per
// hop, and retry-stable, so the engine memoizes its candidates.
func BuildMesh(side int) *network.Network {
	spec := topology.Spec{System: topology.UniformParallelMesh, ChipletsX: 1, ChipletsY: 1, NodesX: side, NodesY: side}
	return build(spec, func(t *topology.Topo, _ *network.Config) (network.Routing, error) {
		return &routing.Mesh{T: t, DimensionOrder: true}, nil
	})
}

func build(spec topology.Spec, route func(*topology.Topo, *network.Config) (network.Routing, error)) *network.Network {
	net, topo, err := topology.Build(network.DefaultConfig(), spec)
	if err == nil {
		net.Routing, err = route(topo, &net.Cfg)
	}
	if err != nil {
		panic(fmt.Sprintf("netbench: %v", err))
	}
	net.SetShardCuts(topo.ShardCuts())
	net.Finalize()
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
