// Command bench is the repository's whole-stack benchmark: seven named
// workloads, each run from generated inputs through the packages' public
// functions, with an end-to-end ledger (untraced) and a per-layer ledger
// (traced). BENCHMARK.json at the repository root declares every name
// printed here; README.md in this directory explains them.
//
//	go run ./bench --workload synth_knee --seed 1 --seconds 10 --trace 0
//	go run ./bench -seed 1 -o bench/out/ledger.json      # every workload, both passes
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"heteroif/internal/topology"
)

// workload is one named set of inputs. sim is nil for sweep_tiny.
type workload struct {
	name string
	why  string
	sim  *simCase
}

// Sizes: one repetition is about a second on the 2-core reference host, so
// a 10 s run holds enough repetitions for a steady median.
var workloads = []workload{
	{"synth_knee", "256-node hetero-PHY torus, uniform at 0.45: the busiest unsaturated point, flit movement and both PHYs of every adapter dominate",
		&simCase{system: topology.HeteroPHYTorus, chiplets: [2]int{4, 2}, nodes: [2]int{4, 4},
			cycles: [2]int64{4000, 400}, warmup: [2]int64{1000, 100}, kind: synth, rate: 0.45}},
	{"synth_sat", "same system, bit-transpose at 0.60, past saturation: blocked heads, VA retries (15 per packet hop), work-list bitmaps and growing source queues dominate",
		&simCase{system: topology.HeteroPHYTorus, chiplets: [2]int{4, 2}, nodes: [2]int{4, 4},
			cycles: [2]int64{6000, 400}, warmup: [2]int64{1500, 100}, kind: synth, rate: 0.60, transpose: true}},
	{"synth_low", "3136-node hetero-channel system at 0.01: routers idle, the traffic generator and wake-bitmap scan dominate; bypasses the router hot path",
		&simCase{system: topology.HeteroChannel, chiplets: [2]int{8, 2}, nodes: [2]int{7, 4},
			cycles: [2]int64{5000, 400}, warmup: [2]int64{1000, 100}, kind: synth, rate: 0.01}},
	{"trace_moc", "generated MOC trace replayed on 1296 nodes with fast-forward, then drained: bursty mid-load, trace generation, replayer and quiescence jumps",
		&simCase{system: topology.HeteroPHYTorus, chiplets: [2]int{9, 2}, nodes: [2]int{4, 4},
			cycles: [2]int64{2000, 500}, warmup: [2]int64{250, 100}, kind: moc}},
	{"coll_fault", "closed-loop DNN training step, 64 leaders on 1024 nodes, serial BER 1e-5 with failover and integrity check: collective engine, retry links, compute fast-forward",
		&simCase{system: topology.HeteroPHYTorus, chiplets: [2]int{8, 2}, nodes: [2]int{4, 4},
			cycles: [2]int64{4_000_000, 500_000}, kind: dnn, grad: [2]int{2048, 64}}},
	{"synth_par", "1024-node hetero-PHY torus at 0.30 on the sharded stepper: the only workload that runs the parallel engine",
		&simCase{system: topology.HeteroPHYTorus, chiplets: [2]int{8, 2}, nodes: [2]int{4, 4},
			cycles: [2]int64{1000, 300}, warmup: [2]int64{250, 100}, kind: synth, rate: 0.30, parallel: true}},
	{"sweep_tiny", "fig11, fig12, fig13, fault and collective at smoke scale through the registry: many sub-second points, so build, finalize, pool and manifest cost dominate stepping",
		nil},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// options are the harness's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    scale
	reps     int // tests only: fixed repetition count (0 = fill -seconds)
	outDir   string
	outFile  string
}

// value is one reported metric: the median over repetitions, its unit and
// the per-repetition raw values it was taken from.
type value struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Raw   []float64 `json:"raw,omitempty"`
}

// result is the outcome of one workload run (one pass, or both merged).
type result struct {
	Workload   string           `json:"workload"`
	Skipped    string           `json:"skipped,omitempty"`
	Reps       int              `json:"reps"`
	OpsTotal   int              `json:"ops_total"`
	OpsFailed  int              `json:"ops_failed"`
	SimDigest  string           `json:"sim_digest"`
	Metrics    map[string]value `json:"metrics"`
	Failures   []string         `json:"failures,omitempty"`
	TraceFile  string           `json:"trace_file,omitempty"`
	ElapsedSec float64          `json:"elapsed_s"`
}

// provenance pins where and how a ledger was produced.
type provenance struct {
	Git                string  `json:"git"`
	GoVersion          string  `json:"go_version"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	NProc              int     `json:"nproc"`
	CPUModel           string  `json:"cpu_model"`
	Seed               int64   `json:"seed"`
	Scale              string  `json:"scale"`
	Seconds            float64 `json:"seconds"`
	ParallelMeasurable bool    `json:"parallel_measurable"`
}

// ledger is the -o output: provenance plus one result per workload.
type ledger struct {
	Provenance provenance `json:"provenance"`
	Workloads  []*result  `json:"workloads"`
}

func parallelMeasurable() bool {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) >= 2
}

// skipReason is non-empty when w cannot be measured on this host: the
// sharded stepper on one CPU runs inline, and its wall time and speed-up
// would be vacuous.
func skipReason(w *workload) string {
	if w.sim != nil && w.sim.parallel && !parallelMeasurable() {
		return fmt.Sprintf("GOMAXPROCS=%d, nproc=%d: the sharded stepper needs two CPUs, a ratio would be vacuous", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	return ""
}

// poolSize is Jobs / Workers: load comes from this one process with at
// most nproc threads.
func poolSize() int { return max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0), 4)) }

func newProvenance(o options) provenance {
	p := provenance{
		GoVersion:          runtime.Version(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		NProc:              runtime.NumCPU(),
		Seed:               o.seed,
		Scale:              o.scale.String(),
		Seconds:            o.seconds,
		ParallelMeasurable: parallelMeasurable(),
	}
	// Output waits for git to exit; outside a git checkout it is empty.
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		p.Git = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// peakRSSMB reads this process's high-water resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// runRep executes one repetition of w. rec non-nil selects the traced
// variant; workers overrides the shard count of a parallel workload.
func runRep(w *workload, o options, n int, workers int, rec *recorder) *rep {
	if w.sim == nil {
		dir := filepath.Join(o.outDir, fmt.Sprintf("sweep-%d-%d", os.Getpid(), n))
		defer os.RemoveAll(dir)
		return runSweep(o.scale, o.seed, poolSize(), dir, rec)
	}
	return runSim(w.name, w.sim, o.scale, o.seed, workers, rec)
}

// measure runs repetitions of one workload in this process until -seconds
// have passed (or o.reps are done) and aggregates them. Untraced (trace 0)
// it reports the end-to-end metrics; traced (trace 1) it alternates
// untraced and traced repetitions and reports the per-layer metrics, so
// that the tracing overhead is an in-run pair ratio and the traced digest
// is checked against an untraced one.
func measure(w *workload, o options) *result {
	start := time.Now()
	res := &result{Workload: w.name, Metrics: make(map[string]value)}
	traced := o.trace != 0
	workers := 1
	if w.sim != nil && w.sim.parallel {
		workers = max(2, poolSize())
	}

	minReps := o.reps
	if minReps == 0 {
		minReps = 3
	}
	if traced {
		minReps = max(minReps, 2) // one untraced, one traced
	}
	var plain, timed []*rep // untraced and traced repetitions
	var seq *rep            // synth_par: the Workers=1 reference repetition
	var lastRec *recorder
	for n := 0; ; n++ {
		done := n >= minReps && (o.reps > 0 || time.Since(start).Seconds() >= o.seconds)
		if done {
			break
		}
		runtime.GC()
		var r *rep
		switch {
		case traced && workers > 1 && seq == nil:
			r = runRep(w, o, n, 1, nil)
			delete(r.vals, "network.par_workers")
			seq = r
			minReps++ // the reference is extra
		case traced && len(timed) < len(plain):
			lastRec = newRecorder()
			r = runRep(w, o, n, workers, lastRec)
			timed = append(timed, r)
		default:
			r = runRep(w, o, n, workers, nil)
			plain = append(plain, r)
		}
		res.Reps++
		res.OpsTotal += r.ops
		res.OpsFailed += r.failedOps
		res.Failures = append(res.Failures, r.fails...)
	}

	// Determinism gate: the digest and every exact metric repeat across
	// repetitions, traced or not, sequential or sharded.
	all := append(append([]*rep{}, plain...), timed...)
	if seq != nil {
		all = append(all, seq)
	}
	ref := all[0]
	res.SimDigest = ref.digest.String()
	for i, r := range all[1:] {
		if r.digest != ref.digest {
			res.failOp("sim_digest differs between repetitions: %s vs %s (rep %d)", ref.digest, r.digest, i+1)
			continue
		}
		for name, v := range r.vals {
			if rv, ok := ref.vals[name]; ok && metricByName[name].Exact && rv != v {
				res.failOp("%s differs between repetitions: %v vs %v", name, rv, v)
			}
		}
	}

	if !traced {
		for _, m := range endToEnd {
			if m.Name == "peak_rss_mb" {
				res.Metrics[m.Name] = value{Value: peakRSSMB(), Unit: m.Unit}
				continue
			}
			res.Metrics[m.Name] = aggregate(m, plain)
		}
	} else {
		for _, m := range perLayer {
			res.Metrics[m.Name] = aggregate(m, timed)
		}
		plainWall, timedWall := aggregate(*metricByName["wall_s"], plain), aggregate(*metricByName["wall_s"], timed)
		set := func(name string, v float64) {
			res.Metrics[name] = value{Value: v, Unit: metricByName[name].Unit}
		}
		set("bench.trace_overhead_ratio", timedWall.Value/plainWall.Value)
		if seq != nil && parallelMeasurable() {
			set("network.par_speedup", seq.vals["wall_s"]/plainWall.Value)
		}
		if w.sim == nil {
			var seqS []float64
			for _, r := range timed {
				seqS = append(seqS, r.seqPointS)
			}
			set("sweep.pool_utilisation", median(seqS)/(float64(poolSize())*plainWall.Value))
		}
		if lastRec != nil {
			res.TraceFile = filepath.Join(o.outDir, "trace_"+w.name+".json")
			if err := lastRec.write(res.TraceFile, w.name); err != nil {
				res.failOp("trace file: %v", err)
			}
		}
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.failOp("%s is not finite", name)
		}
	}
	res.ElapsedSec = time.Since(start).Seconds()
	return res
}

// failOp records a violated cross-repetition gate as one failed operation.
func (res *result) failOp(format string, args ...any) {
	res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	res.OpsFailed = min(res.OpsFailed+1, max(res.OpsTotal, 1))
}

// aggregate reports the median over the repetitions that produced m (0
// when none did: the metric does not apply to this workload).
func aggregate(m metric, reps []*rep) value {
	v := value{Unit: m.Unit}
	for _, r := range reps {
		if x, ok := r.vals[m.Name]; ok {
			v.Raw = append(v.Raw, x)
		}
	}
	if len(v.Raw) > 0 {
		v.Value = median(v.Raw)
	}
	return v
}

// print writes every metric by name with its unit, then (as the last line
// of standard output) the one-object summary the benchmark contract asks
// for.
func (res *result) print() {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s: %d reps, %d ops, %d failed, sim_digest %s\n", res.Workload, res.Reps, res.OpsTotal, res.OpsFailed, res.SimDigest)
	for _, n := range names {
		fmt.Printf("%-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, f := range res.Failures {
		fmt.Printf("FAILED %s: %s\n", res.Workload, f)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.OpsFailed == 0, res.OpsTotal, res.OpsFailed, make(map[string]mv)}
	for n, v := range res.Metrics {
		summary.Metrics[n] = mv{v.Value, v.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		// A non-finite value; already recorded as a failed operation.
		line = []byte(fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, res.OpsTotal, max(res.OpsFailed, 1)))
	}
	fmt.Println(string(line))
}

func writeLedger(path string, l *ledger) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// runAll runs every workload in a fresh child process each (so peak RSS is
// per workload), untraced then traced, and merges the two passes.
func runAll(o options) (*ledger, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	l := &ledger{Provenance: newProvenance(o)}
	for _, w := range workloads {
		if reason := skipReason(&w); reason != "" {
			l.Workloads = append(l.Workloads, &result{Workload: w.name, Skipped: reason})
			continue
		}
		merged := &result{Workload: w.name, Metrics: make(map[string]value)}
		for pass := 0; pass <= 1; pass++ {
			tmp := filepath.Join(o.outDir, fmt.Sprintf("pass-%d-%s-%d.json", os.Getpid(), w.name, pass))
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(pass), "-scale", o.scale.String(),
				"-outdir", o.outDir, "-o", tmp)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			// Run waits for the child; a failed workload exits non-zero
			// after writing its ledger, which still gets merged.
			runErr := cmd.Run()
			part, err := readLedger(tmp)
			os.Remove(tmp)
			if err != nil {
				return nil, fmt.Errorf("%s pass %d: %v (child: %v)", w.name, pass, err, runErr)
			}
			merged.merge(part.Workloads[0], pass == 1)
		}
		merged.print()
		l.Workloads = append(l.Workloads, merged)
	}
	return l, nil
}

// merge folds one pass into the workload's ledger entry. The traced pass
// must have simulated exactly what the untraced one did.
func (res *result) merge(part *result, tracedPass bool) {
	for n, v := range part.Metrics {
		res.Metrics[n] = v
	}
	res.Reps += part.Reps
	res.OpsTotal += part.OpsTotal
	res.OpsFailed += part.OpsFailed
	res.Failures = append(res.Failures, part.Failures...)
	res.ElapsedSec += part.ElapsedSec
	if tracedPass {
		res.TraceFile = part.TraceFile
		if part.SimDigest != res.SimDigest {
			res.failOp("traced sim_digest %s differs from untraced %s", part.SimDigest, res.SimDigest)
		}
	} else {
		res.SimDigest = part.SimDigest
	}
}

func main() {
	var o options
	var scaleName string
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: every workload, each in a child process, both passes)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one workload pass measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from interposed wrappers, spans written to <outdir>/trace_<workload>.json")
	flag.StringVar(&scaleName, "scale", "std", "std, or tiny for the test suite")
	flag.StringVar(&o.outDir, "outdir", filepath.Join("bench", "out"), "directory for trace files and temporary manifests")
	flag.StringVar(&o.outFile, "o", "", "write the full ledger (provenance, per-repetition raw values) to this file")
	flag.BoolVar(&compare, "compare", false, "compare two sets of ledgers: -compare A.json B.json, or A1.json,A2.json B1.json,B2.json to pool interleaved runs")
	flag.Parse()

	switch scaleName {
	case "std":
		o.scale = std
	case "tiny":
		o.scale = tiny
	default:
		fatal("unknown -scale %q (std, tiny)", scaleName)
	}
	if o.seed == 0 {
		fatal("-seed must be non-zero (0 means \"default\" to the experiment registry)")
	}

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		regressed, simChanged, err := compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1))
		switch {
		case err != nil:
			fatal("%v", err)
		case regressed:
			os.Exit(1)
		case simChanged:
			os.Exit(4)
		}
	case o.workload != "":
		w := workloadByName(o.workload)
		if w == nil {
			fatal("unknown workload %q", o.workload)
		}
		// The benchmark builds from the repository's sources: refuse to
		// run from anywhere but a checkout root.
		if _, err := os.Stat("go.mod"); err != nil {
			fatal("run from the repository root: %v", err)
		}
		var res *result
		if reason := skipReason(w); reason != "" {
			res = &result{Workload: w.name, Skipped: reason}
		} else {
			res = measure(w, o)
		}
		if o.outFile != "" {
			if err := writeLedger(o.outFile, &ledger{Provenance: newProvenance(o), Workloads: []*result{res}}); err != nil {
				fatal("%v", err)
			}
		}
		if res.Skipped != "" {
			// No metric exists to report, so no result line either: whoever
			// asked for this workload alone must not read it as a success.
			fmt.Printf("# %s: skipped: %s\n", res.Workload, res.Skipped)
			os.Exit(3)
		}
		res.print()
		if res.OpsFailed > 0 {
			os.Exit(1)
		}
	default:
		l, err := runAll(o)
		if err != nil {
			fatal("%v", err)
		}
		if o.outFile != "" {
			if err := writeLedger(o.outFile, l); err != nil {
				fatal("%v", err)
			}
		}
		failed := false
		for _, r := range l.Workloads {
			if r.Skipped != "" {
				fmt.Printf("# %s: skipped: %s\n", r.Workload, r.Skipped)
			}
			failed = failed || r.OpsFailed > 0
		}
		if failed {
			os.Exit(1)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
