package experiments

import (
	"os"
	"runtime"
	"testing"

	"heteroif/internal/traffic"
)

// TestPaperScaleOrdering runs one operating point (uniform @ 0.1) on the
// paper-scale 3136-node systems — four points of 20k cycles, about 34 s of
// wall clock on 2 vCPUs — and checks the headline Fig. 14 claim at the
// scale the paper actually evaluates:
// hetero-channel beats both uniform baselines decisively (measured: 87
// cycles unsaturated vs 408 for the saturated mesh and 653 for the
// saturated hypercube). The hypercube baseline staying behind the mesh is
// Fig. 14's documented deviation (a), held as an expected value: its
// phase-partitioned escape discipline spends both Table 2 VCs, whereas
// [30]'s original construction presumably provisions more; see
// EXPERIMENTS.md. Gated behind HETEROIF_PAPERSCALE=1 so regular test runs
// stay fast.
func TestPaperScaleOrdering(t *testing.T) {
	if os.Getenv("HETEROIF_PAPERSCALE") == "" {
		t.Skip("set HETEROIF_PAPERSCALE=1 to run the 3136-node spot check")
	}
	// CI windows (20k cycles), one shard per point as under hetsim -jobs.
	cfg := baseConfig(Options{Jobs: runtime.GOMAXPROCS(0)})
	vs := heteroChannelVariants(cfg, 8, 8, 7, 7)
	jobs, keys := make([]pointJob, len(vs)), make([]string, len(vs))
	for i, v := range vs {
		keys[i] = "paperscale/" + v.Name
		v.Pattern, v.Rate = traffic.Uniform{}, 0.1
		jobs[i] = job(keys[i], v)
	}
	res, failed := pooled(jobs)
	rs := lookup(t, res, failed, keys...)
	mesh, cube, ch := rs[0].MeanLatency, rs[1].MeanLatency, rs[2].MeanLatency
	checkCubeBehindMesh(t, cube, mesh, 3136)
	if ch >= cube || ch >= mesh {
		t.Errorf("hetero-channel (%.1f) must beat both baselines (mesh %.1f, cube %.1f)", ch, mesh, cube)
	}
	if thr := rs[2].Throughput; thr < 0.095 {
		t.Errorf("hetero-channel should sustain ≈0.1 flits/cycle/node, got %.4f", thr)
	}
}
