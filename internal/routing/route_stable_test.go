package routing_test

import (
	"slices"
	"testing"

	"heteroif/internal/experiments"
	"heteroif/internal/network"
	"heteroif/internal/topology"
)

// TestRouteRetryStable is the property test behind the RC-memoization
// contract: every Table 2 system declares RouteRetryStable, and over the
// full (router, destination, input port, restricted) product Route returns
// the same candidates from every input port and on every repeat for one
// packet (idempotent Target rewrites included) — what the engine's per-VC
// candidate memo relies on across VA retries. The 256-node hetero-PHY torus
// is the synth_knee system.
func TestRouteRetryStable(t *testing.T) {
	small := func(sys topology.System) topology.Spec {
		return topology.Spec{System: sys, ChipletsX: 2, ChipletsY: 2, NodesX: 2, NodesY: 2}
	}
	cases := []struct {
		name string
		spec topology.Spec
	}{
		{"uniform-parallel-mesh", small(topology.UniformParallelMesh)},
		{"uniform-serial-torus", small(topology.UniformSerialTorus)},
		{"hetero-phy-torus", small(topology.HeteroPHYTorus)},
		{"uniform-serial-hypercube", small(topology.UniformSerialHypercube)},
		{"hetero-channel", small(topology.HeteroChannel)},
		{"hetero-phy-torus-256nodes", topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: 4, ChipletsY: 4, NodesX: 4, NodesY: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, err := experiments.Build(network.DefaultConfig(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			net := in.Net
			st, ok := net.Routing.(network.Stable)
			if !ok || st.Stability() != network.RouteRetryStable {
				t.Fatalf("routing %q does not declare RouteRetryStable", net.Routing.Name())
			}
			var first, got []network.Candidate
			for _, r := range net.Nodes {
				for dst := range net.Nodes {
					if network.NodeID(dst) == r.ID {
						continue
					}
					for _, restricted := range []bool{false, true} {
						pkt := network.Packet{Dst: network.NodeID(dst), Restricted: restricted, Target: -1}
						first = net.Routing.Route(net, r, r.InjectPort, &pkt, first[:0])
						for inPort := range r.In {
							got = net.Routing.Route(net, r, inPort, &pkt, got[:0])
							if !slices.Equal(got, first) {
								t.Fatalf("router %d dst %d restricted=%v: Route from inPort %d gives %v, from injection %v",
									r.ID, dst, restricted, inPort, got, first)
							}
						}
						if pkt.Restricted != restricted {
							t.Fatalf("router %d dst %d: Route flipped Restricted on a healthy topology", r.ID, dst)
						}
					}
				}
			}
		})
	}
}
