package experiments

import (
	"testing"

	"heteroif/internal/network"
	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// TestFaultToleranceWraparounds kills every wraparound link of a hetero-PHY
// torus; the adaptive routing must keep delivering all traffic over the
// mesh escape (Sec. 9 "Fault tolerance").
func TestFaultToleranceWraparounds(t *testing.T) {
	var in *Instance
	failed := 0
	out, err := simPoint{
		Name: "hetero-phy-torus", Cfg: shortCfg(), Spec: smallSpec(topology.HeteroPHYTorus),
		Hook: func(i *Instance) error {
			in = i
			for n := range in.Topo.OutPorts {
				for port := 1; port < len(in.Topo.OutPorts[n]); port++ {
					if in.Topo.OutPorts[n][port].Wrap {
						if err := in.Topo.FailLink(network.NodeID(n), port); err != nil {
							return err
						}
						failed++
					}
				}
			}
			return nil
		},
		Pattern: traffic.Uniform{}, Rate: 0.1, Drain: true,
	}.run()
	if err != nil || failed == 0 {
		t.Fatalf("run with %d failed wraparounds: %v", failed, err)
	}
	if out.Delivered != out.Injected {
		t.Fatalf("delivered %d of %d with failed wraparounds", out.Delivered, out.Injected)
	}
	// No flit may have used a dead link.
	for _, l := range in.Net.Links {
		if in.Topo.OutPorts[l.Src][l.SrcPort].Dead && l.SentTotal > 0 {
			t.Fatalf("dead link %d carried %d flits", l.ID, l.SentTotal)
		}
	}
}

// TestFaultToleranceCubeLinks kills one cube link per (chiplet, dim) pair
// on a hetero-channel system — the channel diversity of the multi-link
// hypercube absorbs it.
func TestFaultToleranceCubeLinks(t *testing.T) {
	failed := 0
	out, err := simPoint{
		Name: "hetero-channel", Cfg: shortCfg(),
		Spec: topology.Spec{System: topology.HeteroChannel, ChipletsX: 2, ChipletsY: 2, NodesX: 4, NodesY: 4},
		Hook: func(in *Instance) error {
			for c := 0; c < 4; c++ {
				for d := 0; d < in.Topo.CubeDims; d++ {
					owners := in.Topo.CubeLinkNodes(c, d)
					if len(owners) < 2 {
						continue
					}
					n := owners[0]
					for port := 1; port < len(in.Topo.OutPorts[n]); port++ {
						if in.Topo.OutPorts[n][port].CubeDim == int8(d) {
							if err := in.Topo.FailLink(n, port); err != nil {
								return err
							}
							failed++
							break
						}
					}
				}
			}
			return nil
		},
		Pattern: traffic.Uniform{}, Rate: 0.1, Drain: true,
	}.run()
	if err != nil || failed == 0 {
		t.Fatalf("run with %d failed cube links: %v", failed, err)
	}
	if out.Delivered != out.Injected {
		t.Fatalf("delivered %d of %d with failed cube links", out.Delivered, out.Injected)
	}
}

// TestFailLinkValidation: escape-subnetwork channels refuse to fail, as
// does the last cube link of a dimension.
func TestFailLinkValidation(t *testing.T) {
	cfg := shortCfg()
	in, err := Build(cfg, topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: 2, ChipletsY: 2, NodesX: 3, NodesY: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Find an on-chip (escape) port.
	for port := 1; port < len(in.Topo.OutPorts[0]); port++ {
		p := in.Topo.OutPorts[0][port]
		if p.Kind == network.KindOnChip && !p.Wrap {
			if err := in.Topo.FailLink(0, port); err == nil {
				t.Fatal("escape channel accepted a fault")
			}
			break
		}
	}
	if err := in.Topo.FailLink(0, 99); err == nil {
		t.Fatal("bogus port accepted")
	}

	// Hypercube: failing every link of one (chiplet, dim) must be refused
	// at the last one.
	cube, err := Build(cfg, topology.Spec{System: topology.UniformSerialHypercube, ChipletsX: 2, ChipletsY: 2, NodesX: 3, NodesY: 3})
	if err != nil {
		t.Fatal(err)
	}
	owners := cube.Topo.CubeLinkNodes(0, 0)
	var lastErr error
	for _, n := range owners {
		for port := 1; port < len(cube.Topo.OutPorts[n]); port++ {
			if cube.Topo.OutPorts[n][port].CubeDim == 0 {
				lastErr = cube.Topo.FailLink(n, port)
			}
		}
	}
	if lastErr == nil {
		t.Fatal("the last cube link of a dimension accepted a fault")
	}
}
