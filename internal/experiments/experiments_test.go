package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

func TestRegistryIDsUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%q): %v", e.ID, err)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if len(Registry) != 18 {
		t.Errorf("registry has %d experiments, want 18 (tables, figures, and the topology/economy/linkfail/fault/compromised/collective reports)", len(Registry))
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestCheapExperimentsRun(t *testing.T) {
	// The analytical experiments are fast enough to run in unit tests and
	// must produce output and CSV files.
	dir := t.TempDir()
	for _, id := range []string{"table1", "fig08", "table4"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(Options{CSVDir: dir}, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".csv")); err != nil {
			t.Errorf("%s wrote no CSV: %v", id, err)
		}
	}
}

func TestFig08Properties(t *testing.T) {
	var buf bytes.Buffer
	e, _ := ByID("fig08")
	if err := e.Run(Options{}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "crossover serial-over-parallel at t=35.0") {
		t.Errorf("expected the Table-2 crossover at t=35 cycles; got:\n%s", out)
	}
}

// TestMeasureSaturationFlag drives each of Measure's two saturation tests
// alone on a 36-node mesh: accepted throughput below 0.85× the offered
// load, and more packets queued at the sources than there are nodes.
func TestMeasureSaturationFlag(t *testing.T) {
	cfg := shortCfg()
	cfg.SimCycles, cfg.WarmupCycles = 1500, 300
	run := func(rate float64) *Instance {
		in, err := Build(cfg, smallSpec(topology.UniformParallelMesh))
		if err != nil {
			t.Fatal(err)
		}
		if err := in.RunSynthetic(traffic.Uniform{}, rate); err != nil {
			t.Fatal(err)
		}
		return in
	}

	// Light load, short queues: only an offered load far above what the
	// network accepted reads as saturated.
	light := run(0.05)
	if q, n := light.Net.QueuedPackets(), light.Topo.N; q > n {
		t.Fatalf("0.05 left %d packets queued on %d nodes", q, n)
	}
	if r := light.Measure("mesh", "uniform", 0.05); r.Saturated {
		t.Errorf("0.05 accepted at %.3f reads as saturated", r.Throughput)
	}
	if r := light.Measure("mesh", "uniform", 1); !r.Saturated {
		t.Errorf("offered 1 but accepted %.3f: should read as saturated", r.Throughput)
	}

	// Far past saturation the source queues grow; with no offered load to
	// compare against, they alone must flag it.
	heavy := run(1.5)
	if q, n := heavy.Net.QueuedPackets(), heavy.Topo.N; q <= n {
		t.Fatalf("1.5 left only %d packets queued on %d nodes", q, n)
	}
	if r := heavy.Measure("mesh", "uniform", 0); !r.Saturated {
		t.Errorf("%d packets queued on %d nodes should read as saturated", heavy.Net.QueuedPackets(), heavy.Topo.N)
	}
}

func TestRankMapSpreadsAcrossChiplets(t *testing.T) {
	in, err := Build(shortCfg(), smallSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rankMap(in.Topo, 8)
	if err != nil {
		t.Fatal(err)
	}
	chiplets := map[int]bool{}
	for _, n := range m {
		chiplets[in.Topo.ChipletID(n)] = true
	}
	if len(chiplets) < 4 {
		t.Errorf("8 ranks landed on %d chiplets, want all 4", len(chiplets))
	}
}

func TestResultString(t *testing.T) {
	r := Result{System: "s", Workload: "w", Rate: 0.1, MeanLatency: 12.5}
	if !strings.Contains(r.String(), "rate=0.100") {
		t.Errorf("result rendering wrong: %s", r)
	}
}
