package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"heteroif/internal/experiments"
	"heteroif/internal/network"
	"heteroif/internal/routing"
	"heteroif/internal/topology"
)

// benchmarkFile is the BENCHMARK.json layout.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestBenchmarkFileMatchesHarness pins BENCHMARK.json to the harness's
// tables, and the tables to the benchmark contract's limits.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bf.Command, []string{"go", "run", "./bench"}) || !slices.Equal(bf.Paths, []string{"bench"}) || bf.RunSeconds != runSeconds {
		t.Errorf("command %v, paths %v, run_seconds %d differ from the harness", bf.Command, bf.Paths, bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, pair := range []struct {
		file  []benchmarkMetric
		table []metric
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(pair.file) != len(pair.table) {
			t.Fatalf("%d metrics declared, harness table has %d", len(pair.file), len(pair.table))
		}
		for i, m := range pair.table {
			if want := (benchmarkMetric{m.Name, m.Unit, m.Better, m.Bound}); pair.file[i] != want {
				t.Errorf("BENCHMARK.json has %+v, harness table %+v", pair.file[i], want)
			}
		}
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(name, unit, better string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("bad metric name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if better != "" && better != lower && better != higher {
			t.Errorf("%s: bad direction %q", name, better)
		}
	}
	for _, w := range bf.Workloads {
		check(w.Name, "", "")
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) missing from end_to_end")
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
}

// TestEveryWorkloadEmitsEveryMetric runs both passes of every workload at
// test scale: the untraced pass reports exactly the end-to-end metrics,
// the traced pass exactly the per-layer ones, each finite and with its
// unit, and every gate holds.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for pass, want := range [][]metric{endToEnd, perLayer} {
			res := measure(w, options{seed: 7, scale: tiny, trace: pass, reps: 1 + pass, outDir: t.TempDir()})
			if res.OpsFailed != 0 || res.OpsTotal < 1 {
				t.Errorf("%s trace=%d: %d of %d ops failed: %v", w.name, pass, res.OpsFailed, res.OpsTotal, res.Failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d declared", w.name, pass, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: %s not emitted", w.name, pass, m.Name)
				case v.Unit != m.Unit || v.Unit == "":
					t.Errorf("%s: %s has unit %q, declared %q", w.name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", w.name, m.Name, v.Value)
				case pass == 0 && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, m.Name, v.Value)
				}
			}
			if pass == 1 {
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", w.name, err)
				}
			}
		}
	}
}

// pureRouting is a Routing that declares no stability.
type plainRouting struct{ network.Routing }

func TestRoutingWrapperForwardsStability(t *testing.T) {
	cfg := network.DefaultConfig()
	_, topo, err := topology.Build(cfg, topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: 2, ChipletsY: 2, NodesX: 4, NodesY: 4})
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.ForSystem(topo, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := alg.(network.Stable).Stability()
	if want == network.RouteDynamic {
		t.Fatal("healthy torus routing should declare a reuse contract")
	}
	var wrapped network.Routing = &timedRouting{inner: alg}
	s, ok := wrapped.(network.Stable)
	if !ok || s.Stability() != want {
		t.Errorf("wrapper hides Stability(): the engine would drop the route LUT")
	}
	if wrapped.Name() != alg.Name() {
		t.Errorf("wrapper renames the algorithm: %q vs %q", wrapped.Name(), alg.Name())
	}
	if got := (&timedRouting{inner: plainRouting{alg}}).Stability(); got != network.RouteDynamic {
		t.Errorf("wrapper invents stability %v for an algorithm that declares none", got)
	}
}

func TestLedgerRoundTripAndSelfCompare(t *testing.T) {
	dir := t.TempDir()
	o := options{seed: 3, scale: tiny, reps: 2, outDir: dir}
	l := &ledger{Provenance: newProvenance(o)}
	for _, name := range []string{"synth_knee", "trace_moc"} {
		res := measure(workloadByName(name), o)
		o.trace = 1
		res.merge(measure(workloadByName(name), o), true)
		o.trace = 0
		if res.OpsFailed != 0 {
			t.Fatalf("%s: %v", name, res.Failures)
		}
		l.Workloads = append(l.Workloads, res)
	}
	path := filepath.Join(dir, "ledger.json")
	if err := writeLedger(path, l); err != nil {
		t.Fatal(err)
	}
	back, err := readLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, back) {
		t.Error("ledger does not survive a JSON round trip")
	}

	var out bytes.Buffer
	regress, simChanged, err := compareLedgers(&out, path, path)
	if err != nil {
		t.Fatal(err)
	}
	if regress || simChanged {
		t.Errorf("a ledger against itself: regressed %v, simulation changed %v", regress, simChanged)
	}
	for _, word := range []string{improved, regressed, unresolved, changed} {
		if strings.Contains(out.String(), " "+word+" ") {
			t.Errorf("self-compare reports %q:\n%s", word, out.String())
		}
	}
	if !strings.Contains(out.String(), unchanged) {
		t.Errorf("self-compare reports nothing unchanged:\n%s", out.String())
	}

	// A "speed-only" change that moves a per-layer simulated value (p99
	// here) while every end-to-end value stays put must not pass.
	v := back.Workloads[0].Metrics["stats.p99_latency_cycles"]
	v.Value++
	for i := range v.Raw {
		v.Raw[i]++
	}
	back.Workloads[0].Metrics["stats.p99_latency_cycles"] = v
	moved := filepath.Join(dir, "moved.json")
	if err := writeLedger(moved, back); err != nil {
		t.Fatal(err)
	}
	if regress, simChanged, err = compareLedgers(&out, path, moved); err != nil || regress || !simChanged {
		t.Errorf("moved p99, same seed: regressed %v, simulation changed %v, err %v; want false, true, nil", regress, simChanged, err)
	}
	back.Workloads[0].Metrics["stats.p99_latency_cycles"] = l.Workloads[0].Metrics["stats.p99_latency_cycles"]
	back.Workloads[1].SimDigest = "0000000000000000"
	if err := writeLedger(moved, back); err != nil {
		t.Fatal(err)
	}
	if _, simChanged, err = compareLedgers(&out, path, moved); err != nil || !simChanged {
		t.Errorf("differing sim_digest, same seed: simulation changed %v, err %v; want true, nil", simChanged, err)
	}
}

// TestSweepFailuresAreFailedOps: a sweep repetition that cannot start is
// one attempted, failed operation, not an empty success.
func TestSweepFailuresAreFailedOps(t *testing.T) {
	for _, id := range sweepIDs[std] {
		if _, err := experiments.ByID(id); err != nil {
			t.Errorf("sweep_tiny names an experiment the registry lacks: %v", err)
		}
	}
	saved := sweepIDs[tiny]
	defer func() { sweepIDs[tiny] = saved }()
	sweepIDs[tiny] = []string{"no-such-experiment"}
	res := measure(workloadByName("sweep_tiny"), options{seed: 7, scale: tiny, reps: 1, outDir: t.TempDir()})
	if res.OpsTotal < 1 || res.OpsFailed < 1 || len(res.Failures) == 0 {
		t.Errorf("unknown sweep id: %d of %d ops failed, failures %v", res.OpsFailed, res.OpsTotal, res.Failures)
	}

	sweepIDs[tiny] = saved
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	res = measure(workloadByName("sweep_tiny"), options{seed: 7, scale: tiny, reps: 1, outDir: file})
	if res.OpsTotal < 1 || res.OpsFailed < 1 {
		t.Errorf("unwritable outdir: %d of %d ops failed, failures %v", res.OpsFailed, res.OpsTotal, res.Failures)
	}
}

func TestJudge(t *testing.T) {
	wall := metricByName["wall_s"]
	lat := metricByName["sim_p50_latency_cycles"]
	base := []float64{1.00, 1.01, 0.99, 1.00}
	for _, tc := range []struct {
		m     *metric
		exact bool
		b     []float64
		want  string
	}{
		{wall, false, []float64{1.02, 1.03, 1.01, 1.02}, unchanged},
		{wall, false, []float64{1.30, 1.31, 1.29, 1.30}, regressed},
		{wall, false, []float64{0.70, 0.71, 0.69, 0.70}, improved},
		{wall, false, []float64{0.70, 1.40, 1.00, 1.30}, unresolved},
		{lat, true, base, unchanged},
		{lat, true, []float64{1.001, 1.001, 1.001, 1.001}, regressed},
	} {
		if got := judge(tc.m, 0.15, tc.exact, base, tc.b); got != tc.want {
			t.Errorf("%s %v: verdict %s, want %s", tc.m.Name, tc.b, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython checks against statistics.quantiles(range(1, 11), n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
