package experiments

import (
	"testing"

	"heteroif/internal/traffic"
)

// TestTable3Probe checks the headline Table 3 property at one mid scale:
// hetero-IF reduces latency against BOTH uniform baselines at 0.1 uniform.
func TestTable3Probe(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale probe")
	}
	cfg := shortCfg()
	cfg.SimCycles = 10000
	cfg.WarmupCycles = 2000
	lat := map[string]float64{}
	for _, v := range heteroPHYVariants(cfg, 4, 4, 4, 4)[:3] {
		r, err := runPoint(v, traffic.Uniform{}, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		lat[v.Name] = r.MeanLatency
		t.Logf("%-26s lat=%.1f", v.Name, r.MeanLatency)
	}
	for _, v := range heteroChannelVariants(cfg, 4, 4, 4, 4)[1:3] {
		r, err := runPoint(v, traffic.Uniform{}, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		lat[v.Name] = r.MeanLatency
		t.Logf("%-26s lat=%.1f", v.Name, r.MeanLatency)
	}
	if lat["hetero-phy-full"] >= lat["uniform-parallel-mesh"] {
		t.Errorf("hetero-PHY (%.1f) should beat uniform parallel mesh (%.1f)", lat["hetero-phy-full"], lat["uniform-parallel-mesh"])
	}
	if lat["hetero-phy-full"] >= lat["uniform-serial-torus"] {
		t.Errorf("hetero-PHY (%.1f) should beat uniform serial torus (%.1f)", lat["hetero-phy-full"], lat["uniform-serial-torus"])
	}
	if lat["hetero-channel-full"] >= lat["uniform-serial-hypercube"] {
		t.Errorf("hetero-channel (%.1f) should beat uniform serial hypercube (%.1f)", lat["hetero-channel-full"], lat["uniform-serial-hypercube"])
	}
}

// TestHeteroPHYSmallScaleZeroLoad inspects the 4×(2×2) hetero-PHY system:
// at 0.1 uniform the balanced policy should keep almost everything on the
// parallel PHYs, and latency should not lose to the uniform parallel mesh.
func TestHeteroPHYSmallScaleZeroLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	cfg := shortCfg()
	cfg.SimCycles = 10000
	cfg.WarmupCycles = 2000
	vs := heteroPHYVariants(cfg, 2, 2, 2, 2)
	var latMesh, latHet float64
	for _, v := range []simPoint{vs[0], vs[2]} {
		var in *Instance
		v.Hook = func(i *Instance) error { in = i; return nil }
		r, err := runPoint(v, traffic.Uniform{}, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		var par, ser uint64
		for _, a := range in.Topo.Adapters {
			par += a.ParallelFlits()
			ser += a.SerialFlits()
		}
		oc, pa, se, he := in.Stats.MeanHops()
		t.Logf("%-24s lat=%.1f hops(on=%.1f par=%.1f ser=%.1f het=%.1f) phyFlits par=%d ser=%d",
			v.Name, r.MeanLatency, oc, pa, se, he, par, ser)
		if v.Name == "uniform-parallel-mesh" {
			latMesh = r.MeanLatency
		} else {
			latHet = r.MeanLatency
		}
	}
	// At this degenerate scale (wraparounds never pay off) the paper still
	// reports a win; our model shows parity — the adapter costs a fraction
	// of a cycle per crossing (see EXPERIMENTS.md). Assert parity.
	if latHet > latMesh*1.05 {
		t.Errorf("hetero-PHY (%.1f) loses to parallel mesh (%.1f) at small scale", latHet, latMesh)
	}
}

// TestFig11HeadlineSaturation guards the paper's headline claim: at 0.45
// flits/cycle/node uniform traffic on the 256-node system, the
// uniform-parallel mesh is saturated while the full-bandwidth hetero-PHY
// torus still accepts the full load (Fig. 11 / Sec. 8.1.1).
func TestFig11HeadlineSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second saturation probe")
	}
	cfg := shortCfg()
	cfg.SimCycles = 15000
	cfg.WarmupCycles = 3000
	vs := heteroPHYVariants(cfg, 4, 4, 4, 4)
	mesh, err := runPoint(vs[0], traffic.Uniform{}, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	het, err := runPoint(vs[2], traffic.Uniform{}, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if !mesh.Saturated {
		t.Errorf("uniform-parallel mesh should saturate at 0.45 (thr %.3f)", mesh.Throughput)
	}
	if het.Saturated {
		t.Errorf("hetero-PHY full should sustain 0.45 (thr %.3f)", het.Throughput)
	}
	if het.MeanLatency >= mesh.MeanLatency {
		t.Errorf("hetero-PHY latency %.1f should beat the saturated mesh %.1f", het.MeanLatency, mesh.MeanLatency)
	}
}

// TestFig14HeadlineOrdering guards the hetero-channel claim at a moderate
// load on the (short-mode) 784-node system: hetero-channel-full beats both
// the parallel mesh and the serial hypercube (Fig. 14 / Sec. 8.1.2).
func TestFig14HeadlineOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second saturation probe")
	}
	cfg := shortCfg()
	cfg.SimCycles = 12000
	cfg.WarmupCycles = 3000
	vs := heteroChannelVariants(cfg, 4, 4, 7, 7)
	lat := map[string]float64{}
	for _, v := range vs[:3] {
		r, err := runPoint(v, traffic.Uniform{}, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		lat[v.Name] = r.MeanLatency
		t.Logf("%-26s lat=%.1f thr=%.3f sat=%v", v.Name, r.MeanLatency, r.Throughput, r.Saturated)
	}
	if lat["hetero-channel-full"] >= lat["uniform-parallel-mesh"] {
		t.Errorf("hetero-channel (%.1f) should beat the mesh (%.1f)", lat["hetero-channel-full"], lat["uniform-parallel-mesh"])
	}
	if lat["hetero-channel-full"] >= lat["uniform-serial-hypercube"] {
		t.Errorf("hetero-channel (%.1f) should beat the hypercube (%.1f)", lat["hetero-channel-full"], lat["uniform-serial-hypercube"])
	}
}
