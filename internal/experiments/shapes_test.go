package experiments

import (
	"runtime"
	"sync"
	"testing"

	"heteroif/internal/traffic"
)

// shapeList declares every operating point the paper-shape tests read:
// uniform traffic on shortCfg's drain and deadlock bounds, each with the
// window and offered load it is judged at. The 784-node points come first
// because they take longest.
func shapeList() []pointJob {
	uniform := func(key string, p simPoint, sim, warm int64, rate float64) pointJob {
		p.Cfg.SimCycles, p.Cfg.WarmupCycles = sim, warm
		p.Pattern, p.Rate = traffic.Uniform{}, rate
		return job(key, p)
	}
	weight2 := func(p simPoint) simPoint { p.Bias = 2; return p }
	cfg := shortCfg()
	ch784 := heteroChannelVariants(cfg, 4, 4, 7, 7)
	ch256 := heteroChannelVariants(cfg, 4, 4, 4, 4)
	phy256 := heteroPHYVariants(cfg, 4, 4, 4, 4)
	phy16 := heteroPHYVariants(cfg, 2, 2, 2, 2)
	return []pointJob{
		uniform("fig14/uniform-parallel-mesh", ch784[0], 12000, 3000, 0.15),
		uniform("fig14/uniform-serial-hypercube", ch784[1], 12000, 3000, 0.15),
		uniform("fig14/hetero-channel-full", ch784[2], 12000, 3000, 0.15),
		uniform("eq5/16x(7x7)/weight1", ch784[2], 12000, 3000, 0.1),
		uniform("eq5/16x(7x7)/weight2", weight2(ch784[2]), 12000, 3000, 0.1),
		uniform("fig11/uniform-parallel-mesh", phy256[0], 15000, 3000, 0.45),
		uniform("fig11/hetero-phy-full", phy256[2], 15000, 3000, 0.45),
		uniform("eq5/16x(4x4)/weight1", ch256[2], 12000, 3000, 0.1),
		uniform("eq5/16x(4x4)/weight2", weight2(ch256[2]), 12000, 3000, 0.1),
		uniform("table3/16x(4x4)/uniform-parallel-mesh", phy256[0], 10000, 2000, 0.1),
		uniform("table3/16x(4x4)/uniform-serial-torus", phy256[1], 10000, 2000, 0.1),
		uniform("table3/16x(4x4)/hetero-phy-full", phy256[2], 10000, 2000, 0.1),
		uniform("table3/16x(4x4)/uniform-serial-hypercube", ch256[1], 10000, 2000, 0.1),
		uniform("table3/16x(4x4)/hetero-channel-full", ch256[2], 10000, 2000, 0.1),
		uniform("table3/4x(2x2)/uniform-parallel-mesh", phy16[0], 10000, 2000, 0.1),
		uniform("table3/4x(2x2)/hetero-phy-full", phy16[2], 10000, 2000, 0.1),
	}
}

// pooled runs the jobs through the sweep pool, one job per CPU, and
// returns each successful job's Result and each failed job's error by
// key, as the manifest records them.
func pooled(jobs []pointJob) (map[string]Result, map[string]string) {
	o := Options{Jobs: runtime.GOMAXPROCS(0), Manifest: &Manifest{}}
	outs, _ := runJobs(o, jobs)
	res := map[string]Result{}
	for i, out := range outs {
		if len(out) == 1 {
			res[jobs[i].key] = out[0].Result
		}
	}
	failed := map[string]string{}
	for _, mp := range o.Manifest.Points {
		if mp.Failed {
			failed[mp.Key] = mp.Err
		}
	}
	return res, failed
}

// shapeRuns runs shapeList once per test process, on first use.
var shapeRuns = sync.OnceValues(func() (map[string]Result, map[string]string) {
	return pooled(shapeList())
})

// lookup returns the Results of the named points in order. A point that
// failed, or a key nobody declared, fails t under its key.
func lookup(t *testing.T, res map[string]Result, failed map[string]string, keys ...string) []Result {
	t.Helper()
	out := make([]Result, len(keys))
	for i, k := range keys {
		r, ok := res[k]
		switch msg, bad := failed[k]; {
		case bad:
			t.Errorf("point %s failed: %s", k, msg)
		case !ok:
			t.Errorf("no point %s", k)
		}
		out[i] = r
	}
	if t.Failed() {
		t.FailNow()
	}
	for i, r := range out {
		t.Logf("%-45s %s", keys[i], r)
	}
	return out
}

// shapes returns the pooled Results of the named shapeList points.
func shapes(t *testing.T, keys ...string) []Result {
	t.Helper()
	res, failed := shapeRuns()
	return lookup(t, res, failed, keys...)
}

// TestTable3Probe checks the headline Table 3 property at one mid scale:
// hetero-IF reduces latency against BOTH uniform baselines at 0.1 uniform.
func TestTable3Probe(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale probe")
	}
	rs := shapes(t,
		"table3/16x(4x4)/uniform-parallel-mesh",
		"table3/16x(4x4)/uniform-serial-torus",
		"table3/16x(4x4)/hetero-phy-full",
		"table3/16x(4x4)/uniform-serial-hypercube",
		"table3/16x(4x4)/hetero-channel-full")
	mesh, torus, phy, cube, ch := rs[0].MeanLatency, rs[1].MeanLatency, rs[2].MeanLatency, rs[3].MeanLatency, rs[4].MeanLatency
	if phy >= mesh {
		t.Errorf("hetero-PHY (%.1f) should beat uniform parallel mesh (%.1f)", phy, mesh)
	}
	if phy >= torus {
		t.Errorf("hetero-PHY (%.1f) should beat uniform serial torus (%.1f)", phy, torus)
	}
	if ch >= cube {
		t.Errorf("hetero-channel (%.1f) should beat uniform serial hypercube (%.1f)", ch, cube)
	}
	// Documented deviation: the literal Eq. 5 rule buys serial hops that
	// only pay off under load or at scale (measured 37.1 vs 32.0).
	if ch < mesh {
		t.Errorf("hetero-channel (%.1f) now beats the mesh (%.1f) at 16×(4×4): update the deviations in EXPERIMENTS.md \"Table 3 — scalability\"", ch, mesh)
	}
}

// TestHeteroPHYSmallScaleZeroLoad inspects the 4×(2×2) hetero-PHY system at
// 0.1 uniform. At this degenerate scale (wraparounds never pay off) the
// paper still reports a win; our model shows parity — the adapter costs a
// fraction of a cycle per crossing (measured 16.0 vs 15.6). Both sides of
// parity are asserted, so a win is noticed too.
func TestHeteroPHYSmallScaleZeroLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	rs := shapes(t, "table3/4x(2x2)/uniform-parallel-mesh", "table3/4x(2x2)/hetero-phy-full")
	mesh, het := rs[0], rs[1]
	for _, r := range rs {
		t.Logf("%-24s hops on-chip=%.2f iface=%.2f", r.System, r.HopsOnChip, r.HopsIface)
	}
	switch ratio := het.MeanLatency / mesh.MeanLatency; {
	case ratio > 1.05:
		t.Errorf("hetero-PHY (%.1f) loses to parallel mesh (%.1f) at small scale", het.MeanLatency, mesh.MeanLatency)
	case ratio < 0.95:
		t.Errorf("hetero-PHY (%.1f) now beats the parallel mesh (%.1f) by more than 5 %% at 4×(2×2): update the deviations in EXPERIMENTS.md \"Table 3 — scalability\"", het.MeanLatency, mesh.MeanLatency)
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
	rs := shapes(t, "fig11/uniform-parallel-mesh", "fig11/hetero-phy-full")
	mesh, het := rs[0], rs[1]
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
	rs := shapes(t, "fig14/uniform-parallel-mesh", "fig14/uniform-serial-hypercube", "fig14/hetero-channel-full")
	mesh, cube, ch := rs[0].MeanLatency, rs[1].MeanLatency, rs[2].MeanLatency
	if ch >= mesh {
		t.Errorf("hetero-channel (%.1f) should beat the mesh (%.1f)", ch, mesh)
	}
	if ch >= cube {
		t.Errorf("hetero-channel (%.1f) should beat the hypercube (%.1f)", ch, cube)
	}
	checkCubeBehindMesh(t, cube, mesh, 784)
}

// checkCubeBehindMesh holds Fig. 14's documented deviation (a): the
// serial-hypercube baseline stays behind the parallel mesh.
func checkCubeBehindMesh(t *testing.T, cube, mesh float64, nodes int) {
	t.Helper()
	if !(cube > mesh) {
		t.Errorf("hypercube (%.1f) no longer behind the mesh (%.1f) at %d nodes: update documented deviation (a) in EXPERIMENTS.md \"Figure 14\"", cube, mesh, nodes)
	}
}

// TestEq5MarginTradeoff documents the subnetwork-selection trade-off:
// weighting the serial side of the Eq. 5 comparison by 2 (the cube must
// save half the chiplet hops) recovers mesh parity on small chiplets where
// serial-hop latency dominates, but gives up the congestion relief that
// makes the literal Eq. 5 rule win once the mesh carries real load — which
// is why the paper's load-oriented balanced philosophy (and our default)
// keeps the literal rule.
func TestEq5MarginTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second trade-off sweep")
	}
	rs := shapes(t, "eq5/16x(4x4)/weight1", "eq5/16x(4x4)/weight2", "eq5/16x(7x7)/weight1", "eq5/16x(7x7)/weight2")
	// Small chiplets: the weight pays (serial hops cost more than they save).
	if small1, small2 := rs[0].MeanLatency, rs[1].MeanLatency; small2 >= small1 {
		t.Errorf("weight 2 should help small chiplets: %.1f vs %.1f", small2, small1)
	}
	// Large loaded chiplets: the literal Eq. 5 rule pays (congestion relief).
	if big1, big2 := rs[2].MeanLatency, rs[3].MeanLatency; big1 >= big2 {
		t.Errorf("literal Eq. 5 should win at load: %.1f vs %.1f", big1, big2)
	}
}
