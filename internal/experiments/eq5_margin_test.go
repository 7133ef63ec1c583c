package experiments

import (
	"testing"

	"heteroif/internal/routing"
	"heteroif/internal/traffic"
)

// TestEq5MarginTradeoff documents the subnetwork-selection trade-off: an
// additive margin on the Eq. 5 comparison (require the cube to save ≥2
// chiplet hops) recovers mesh parity on small chiplets where serial-hop
// latency dominates, but gives up the congestion relief that makes the
// literal Eq. 5 rule win once the mesh carries real load — which is why
// the paper's load-oriented balanced philosophy (and our default) keeps
// the literal rule.
func TestEq5MarginTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second trade-off sweep")
	}
	cfg := shortCfg()
	cfg.SimCycles = 12000
	cfg.WarmupCycles = 3000
	lat := func(cx, nx, margin int) float64 {
		v := heteroChannelVariants(cfg, cx, cx, nx, nx)[2]
		v.Hook = func(in *Instance) error {
			in.Net.Routing = &routing.HeteroChannel{T: in.Topo, Margin: margin}
			return nil
		}
		r, err := runPoint(v, traffic.Uniform{}, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%dx(%dx%d) margin=%d lat=%.1f", cx*cx, nx, nx, margin, r.MeanLatency)
		return r.MeanLatency
	}
	// Small chiplets: the margin pays (serial hops cost more than they save).
	if small0, small2 := lat(4, 4, 0), lat(4, 4, 2); small2 >= small0 {
		t.Errorf("margin should help small chiplets: %.1f vs %.1f", small2, small0)
	}
	// Large loaded chiplets: the literal Eq. 5 rule pays (congestion relief).
	if big0, big2 := lat(4, 7, 0), lat(4, 7, 2); big0 >= big2 {
		t.Errorf("literal Eq. 5 should win at load: %.1f vs %.1f", big0, big2)
	}
}
