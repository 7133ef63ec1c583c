package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"heteroif/internal/network"
	"heteroif/internal/sweep"
	"heteroif/internal/topology"
)

// Options configures an experiment run.
type Options struct {
	// Full runs paper-scale simulation windows (Table 2: 100k cycles, 10k
	// warm-up) and full sweeps; otherwise a shortened window is used so
	// the whole suite stays runnable in CI.
	Full bool
	// CSVDir, when non-empty, receives one CSV file per experiment.
	CSVDir string
	// Seed overrides the default random seed when non-zero.
	Seed int64
	// Workers cuts one simulation into that many deterministically stepped
	// shards, one goroutine each (1 = one shard) — cycle-level
	// parallelism. 0 picks the count from the system size and follows the
	// load (network.Config.Workers), or one shard when Jobs > 1.
	Workers int
	// Tiny shrinks systems and windows to smoke-test scale (seconds for
	// the whole registry); used by tests, never for reported results.
	Tiny bool
	// Jobs runs this many independent operating points concurrently —
	// point-level parallelism (0/1 = sequential in submission order).
	// Results are bit-identical for any value.
	Jobs int
	// JobTimeout bounds each operating point's wall-clock time; a point
	// that exceeds it is reported as failed instead of hanging the sweep
	// (0 = unbounded).
	JobTimeout time.Duration
	// Progress, when non-nil, receives per-point completion updates.
	Progress func(sweep.Progress)
	// Manifest, when non-nil, accumulates per-point results and derived
	// tables for the machine-readable BENCH_<experiment>.json output.
	Manifest *Manifest
	// FaultBER, when nonzero, overrides the serial bit-error-rate sweep of
	// the fault experiment with {0, FaultBER}.
	FaultBER float64
	// FaultSeed seeds the fault-injection RNG streams independently of the
	// workload seed (0 derives one from the network seed).
	FaultSeed int64
}

// Experiment is a runnable reproduction of one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options, w io.Writer) error
}

// Registry lists every experiment in paper order.
var Registry = []Experiment{
	{"table1", "Table 1: die-to-die interface specifications", runTable1},
	{"fig08", "Figure 8: V-t curves of the interface bandwidth-latency model", runFig08},
	{"fig11", "Figure 11: hetero-PHY network, six traffic patterns (256 nodes)", runFig11},
	{"fig12", "Figure 12: hetero-PHY network, PARSEC traces (64 nodes)", runFig12},
	{"fig13", "Figure 13: hetero-PHY network, HPC traces (1296 nodes)", runFig13},
	{"fig14", "Figure 14: hetero-channel network, six traffic patterns (3136 nodes)", runFig14},
	{"fig15", "Figure 15: hetero-channel network, HPC traces (3136 nodes)", runFig15},
	{"table3", "Table 3: average latency reduction across five system scales", runTable3},
	{"table4", "Table 4: post-synthesis analysis of adapter and routers", runTable4},
	{"fig16", "Figure 16: average energy on uniform traffic", runFig16},
	{"fig17", "Figure 17: average energy on HPC (MOC) traffic", runFig17},
	{"fig18", "Figure 18: average energy vs local traffic scale", runFig18},
	{"topo", "Topology analysis: diameter / average distance / bisection (Sec. 2 motivation)", runTopo},
	{"economy", "Cost model: chiplet reuse economics (Sec. 10 / Chiplet Actuary [29])", runEconomy},
	{"linkfail", "Fault tolerance: latency vs failed adaptive channels (Sec. 9)", runLinkFail},
	{"fault", "Link reliability: BER × policy with link-layer retry and failover (Sec. 2.1)", runFault},
	{"compromised", "Extension: simulated compromised (BoW-like) interface vs hetero-IF (Sec. 2.2)", runCompromised},
	{"collective", "Extension: closed-loop collective/DNN workloads — completion time by policy × topology", runCollective},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids)
}

// baseConfig returns the simulation configuration for an options set.
func baseConfig(o Options) network.Config {
	cfg := network.DefaultConfig()
	if !o.Full {
		cfg.SimCycles = 20000
		cfg.WarmupCycles = 4000
	}
	if o.Tiny {
		cfg.SimCycles = 4000
		cfg.WarmupCycles = 800
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.Workers = o.Workers
	if cfg.Workers == 0 && o.Jobs > 1 {
		// The pool already runs a point per CPU; jobs × shards stays
		// within the CPUs.
		cfg.Workers = 1
	}
	return cfg
}

// heteroPHYVariants returns the four systems of the hetero-PHY evaluation
// (Sec. 8.1.1): uniform-parallel mesh, uniform-serial torus, hetero-PHY
// torus at full interface bandwidth, and hetero-PHY torus at halved
// (pin-constrained) bandwidth.
func heteroPHYVariants(cfg network.Config, cx, cy, nx, ny int) []simPoint {
	spec := func(s topology.System) topology.Spec {
		return topology.Spec{System: s, ChipletsX: cx, ChipletsY: cy, NodesX: nx, NodesY: ny}
	}
	return []simPoint{
		{Name: "uniform-parallel-mesh", Cfg: cfg, Spec: spec(topology.UniformParallelMesh)},
		{Name: "uniform-serial-torus", Cfg: cfg, Spec: spec(topology.UniformSerialTorus)},
		{Name: "hetero-phy-full", Cfg: cfg, Spec: spec(topology.HeteroPHYTorus)},
		{Name: "hetero-phy-half", Cfg: cfg.Halved(), Spec: spec(topology.HeteroPHYTorus)},
	}
}

// heteroChannelVariants returns the four systems of the hetero-channel
// evaluation (Sec. 8.1.2).
func heteroChannelVariants(cfg network.Config, cx, cy, nx, ny int) []simPoint {
	spec := func(s topology.System) topology.Spec {
		return topology.Spec{System: s, ChipletsX: cx, ChipletsY: cy, NodesX: nx, NodesY: ny}
	}
	return []simPoint{
		{Name: "uniform-parallel-mesh", Cfg: cfg, Spec: spec(topology.UniformParallelMesh)},
		{Name: "uniform-serial-hypercube", Cfg: cfg, Spec: spec(topology.UniformSerialHypercube)},
		{Name: "hetero-channel-full", Cfg: cfg, Spec: spec(topology.HeteroChannel)},
		{Name: "hetero-channel-half", Cfg: cfg.Halved(), Spec: spec(topology.HeteroChannel)},
	}
}

// pick returns full, short or tiny depending on the options.
func pick(o Options, full, short, tiny int) int {
	if o.Tiny {
		return tiny
	}
	if o.Full {
		return full
	}
	return short
}

// pointJob is one job of the sweep pool: one simulated point, or one rate
// sweep of a system. run returns the outcome of every point it simulated,
// in order; a scripted scenario whose outcome is data, not a measured
// point, returns none. Either adds what each run cost the engine to c,
// failed runs included.
type pointJob struct {
	key string
	run func(c *Cycles) ([]outcome, error)
}

// job runs one point under the given key.
func job(key string, p simPoint) pointJob {
	return pointJob{key: key, run: func(c *Cycles) ([]outcome, error) {
		out, err := p.run()
		c.add(out.cycles)
		if err != nil {
			return nil, err
		}
		return []outcome{out}, nil
	}}
}

// sweepRates measures one system's pattern (set on v) across offered loads,
// stopping two points past saturation (the latency-vs-injection curves of
// Figs. 11/14). The early exit is a sequential dependency between rates, so
// the whole sweep is one job; different (system, pattern) sweeps are
// independent. A failed rate ends the job with the outcomes before it.
func sweepRates(key string, v simPoint, rates []float64) pointJob {
	return pointJob{key: key, run: func(c *Cycles) ([]outcome, error) {
		var outs []outcome
		pastSat := 0
		for _, rate := range rates {
			v.Rate = rate
			out, err := v.run()
			c.add(out.cycles)
			if err != nil {
				return outs, err
			}
			outs = append(outs, out)
			if out.Saturated {
				pastSat++
				if pastSat >= 2 {
					break
				}
			}
		}
		return outs, nil
	}}
}

// jobValue is what a pool job returns: its outcomes and what its runs cost
// the engine.
type jobValue struct {
	outs   []outcome
	cycles Cycles
}

// runJobs executes the jobs through the sweep orchestrator, honoring
// o.Jobs/o.JobTimeout/o.Progress, and records them in the manifest in
// submission order: every Result of every job's outcomes, then a failed
// job's error after the outcomes it got to, and one cost row per job (a
// timed-out job's with its wall time only). It returns the per-job
// outcomes in submission order — identical for any pool size — plus the
// first error. Siblings of a failed job always run to completion.
func runJobs(o Options, jobs []pointJob) ([][]outcome, error) {
	sj := make([]sweep.Job[jobValue], len(jobs))
	for i, j := range jobs {
		sj[i] = sweep.Job[jobValue]{Key: j.key, Run: func() (v jobValue, err error) {
			v.outs, err = j.run(&v.cycles)
			return v, err
		}}
	}
	outs := sweep.Run(sj, sweep.Options{Jobs: o.Jobs, Timeout: o.JobTimeout, OnProgress: o.Progress})
	res := make([][]outcome, len(outs))
	var firstErr error
	for i, out := range outs {
		res[i] = out.Value.outs
		for _, oc := range out.Value.outs {
			o.Manifest.Record(oc.Result)
		}
		o.Manifest.RecordCost(JobCost{Key: out.Key, WallUS: out.Elapsed.Microseconds(), Cycles: out.Value.cycles})
		if out.Err != nil {
			o.Manifest.RecordFailure(out.Key, out.Err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", out.Key, out.Err)
			}
		}
	}
	return res, firstErr
}

// emitResults emits the Results of runJobs' outcomes, the rows it recorded
// in the manifest, as <CSVDir>/<name>.csv when CSVDir is set.
func emitResults(o Options, name string, outs [][]outcome) error {
	var rs []Result
	for _, out := range outs {
		for _, oc := range out {
			rs = append(rs, oc.Result)
		}
	}
	return writeCSV(o.CSVDir, name, resultHeader, resultRows(rs))
}

// emitTable records a derived (non-Result) table into the manifest and
// emits it as CSV, for the table/report experiments.
func emitTable(o Options, name string, header []string, rows [][]string) error {
	o.Manifest.RecordTable(name, header, rows)
	return writeCSV(o.CSVDir, name, header, rows)
}

// writeCSV emits rows to <dir>/<name>.csv when dir is non-empty.
func writeCSV(dir, name string, header []string, rows [][]string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func resultRows(rs []Result) [][]string {
	rows := make([][]string, 0, len(rs))
	for _, r := range rs {
		rows = append(rows, []string{
			r.System, r.Workload,
			strconv.FormatFloat(r.Rate, 'f', 4, 64),
			strconv.FormatFloat(r.MeanLatency, 'f', 2, 64),
			strconv.FormatFloat(r.NetLatency, 'f', 2, 64),
			strconv.FormatInt(r.P99Latency, 10),
			strconv.FormatFloat(r.StdDev, 'f', 2, 64),
			strconv.FormatFloat(r.Throughput, 'f', 5, 64),
			strconv.FormatFloat(r.EnergyPJ, 'f', 1, 64),
			strconv.FormatInt(r.Packets, 10),
			strconv.FormatBool(r.Saturated),
		})
	}
	return rows
}

var resultHeader = []string{
	"system", "workload", "offered_rate", "mean_latency", "net_latency",
	"p99_latency", "stddev", "throughput", "energy_pj_per_pkt", "packets", "saturated",
}
