package experiments

import (
	"runtime"
	"slices"
	"testing"
)

// TestHPCTracesReplayOnlyTheHead: the Fig. 13/15 jobs replay a head of
// each HPC trace that is a prefix of the full-length trace, and the first
// full-trace record the head leaves out would be offered at or after
// SimCycles at the largest speedup, so no replay misses it.
func TestHPCTracesReplayOnlyTheHead(t *testing.T) {
	scales := []struct {
		name  string
		o     Options
		nodes []int // fig13's and fig15's
	}{
		{"tiny", Options{Tiny: true}, []int{64, 64}},
		{"default", Options{}, []int{256, 784}},
	}
	for _, sc := range scales {
		if sc.name != "tiny" && testing.Short() {
			continue
		}
		cfg := baseConfig(sc.o)
		for i, src := range hpcSources {
			full := src.gen(hpcLength(sc.o), cfg.Seed+src.seed)
			for _, nodes := range sc.nodes {
				tr := hpcTraces(sc.o, nodes)[i]
				n := len(tr.head.Records)
				if !slices.Equal(tr.head.Records, full.Records[:n]) {
					t.Fatalf("%s/%s/%d nodes: the head's %d records are not the full trace's first", sc.name, full.Name, nodes, n)
				}
				if n == len(full.Records) {
					continue
				}
				speedup := slices.Max(tr.speedups)
				if due := int64(float64(full.Records[n].Time) / speedup); due < cfg.SimCycles {
					t.Errorf("%s/%s/%d nodes: the first record past the head (time %d) is due at cycle %d < SimCycles %d",
						sc.name, full.Name, nodes, full.Records[n].Time, due, cfg.SimCycles)
				}
			}
		}
	}
}

// TestHPCTracesAllocateOnlyTheHead: preparing the Tiny Fig. 13/15 traces
// allocates under 1 MB. Generating them whole allocates over 8 MB.
func TestHPCTracesAllocateOnlyTheHead(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hpcTraces(Options{Tiny: true}, 64)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("preparing the Tiny HPC traces allocated %d B, want under 1 MiB", n)
	}
}
