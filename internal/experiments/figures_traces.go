package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"

	"heteroif/internal/network"
	"heteroif/internal/topology"
	"heteroif/internal/trace"
)

// rankMap places trace ranks onto nodes. When ranks fit, it spreads them
// evenly across chiplets using each chiplet's core (interior) nodes first —
// the Sec. 8.1.2 "core nodes of each chiplet" placement; when the system is
// smaller than the rank space (the reduced scales, or a small system
// replaying a 1024-rank trace through Instance.Replay), ranks wrap around.
func rankMap(t *topology.Topo, ranks int) ([]network.NodeID, error) {
	var cores []network.NodeID
	perChiplet := ranks / (t.ChipletsX * t.ChipletsY)
	if perChiplet == 0 {
		perChiplet = 1
	}
	// Interior nodes per chiplet, row-major.
	var interior [][2]int
	for ny := 0; ny < t.NodesY; ny++ {
		for nx := 0; nx < t.NodesX; nx++ {
			if t.NodesX > 2 && t.NodesY > 2 &&
				(nx == 0 || ny == 0 || nx == t.NodesX-1 || ny == t.NodesY-1) {
				continue
			}
			interior = append(interior, [2]int{nx, ny})
		}
	}
	for c := 0; c < t.ChipletsX*t.ChipletsY; c++ {
		ox, oy := t.ChipletOrigin(c)
		for i := 0; i < perChiplet && i < len(interior); i++ {
			cores = append(cores, t.NodeAt(ox+interior[i][0], oy+interior[i][1]))
		}
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("experiments: no core nodes available for rank mapping")
	}
	m := make([]network.NodeID, ranks)
	for r := range m {
		m[r] = cores[r%len(cores)]
	}
	return m, nil
}

// runFig12 reproduces Figure 12: PARSEC traces on the 64-node systems
// (4×4 chiplets of 2×2 nodes), reporting average latency and its standard
// deviation per workload for the four hetero-PHY comparison systems.
func runFig12(o Options, w io.Writer) error {
	cfg := baseConfig(o)
	workloads := trace.PARSECWorkloads()
	if !o.Full {
		workloads = []string{"blackscholes", "canneal", "fluidanimate", "x264"}
	}
	if o.Tiny {
		workloads = workloads[:1]
	}
	vs := heteroPHYVariants(cfg, 4, 4, 2, 2)

	// Traces are generated once up front (their generator state is
	// sequential), then shared read-only by the replay jobs.
	traces := make([]*trace.Trace, len(workloads))
	for i, wl := range workloads {
		tr, err := trace.GeneratePARSEC(wl, cfg.SimCycles, cfg.Seed+31)
		if err != nil {
			return err
		}
		traces[i] = tr
	}
	var jobs []pointJob
	for _, tr := range traces {
		for _, v := range vs {
			v.Trace, v.Speedup = tr, 1
			jobs = append(jobs, job(fmt.Sprintf("fig12/%s/%s", tr.Name, v.Name), v))
		}
	}
	outs, err := runJobs(o, jobs)
	if err != nil {
		return err
	}
	i := 0
	for ti, tr := range traces {
		fmt.Fprintf(w, "--- fig12 / %s (offered %.4f flits/cycle/node) ---\n", workloads[ti], tr.OfferedRate())
		for range vs {
			r := outs[i][0].Result
			i++
			fmt.Fprintf(w, "%-26s lat=%7.1f ± %6.1f cycles, p99=%5d, %d pkts\n",
				r.System, r.MeanLatency, r.StdDev, r.P99Latency, r.Packets)
		}
	}
	return emitResults(o, "fig12", outs)
}

// hpcTargets is the Fig. 13/15 injection-rate sweep in flits/cycle/node:
// the same trace is time-compressed so its offered load hits each target,
// which gives the same x-axis as the paper's curves.
func hpcTargets(o Options) []float64 {
	if o.Tiny {
		return []float64{0.05}
	}
	if o.Full {
		return []float64{0.05, 0.10, 0.20, 0.40, 0.80}
	}
	return []float64{0.05, 0.15, 0.40}
}

// hpcSources are the traces of Figs. 13 and 15: each one's generator, its
// count pass and its seed offset.
var hpcSources = []struct {
	gen   func(cycles, seed int64) *trace.Trace
	flits func(cycles, seed int64) int64
	seed  int64
}{
	{trace.GenerateCNS, trace.CNSFlits, 41},
	{trace.GenerateMOC, trace.MOCFlits, 43},
}

// hpcTrace is one trace of Figs. 13 and 15 as their jobs replay it: the
// head of the full-length trace, and the speedup that compresses the full
// trace to each target's offered load.
type hpcTrace struct {
	head     *trace.Trace
	speedups []float64
}

// hpcLength is the full length of the Fig. 13/15 traces: enough trace to
// cover the replay window at the highest target.
func hpcLength(o Options) int64 {
	if o.Full {
		return baseConfig(o).SimCycles * 8
	}
	return baseConfig(o).SimCycles * 4
}

// hpcTraces prepares the Fig. 13/15 traces for a system of the given node
// count. The full length enters every result through speedup =
// target·nodes·Cycles/flits, so its flit total comes from the count pass,
// which runs the generator's own loop without storing a record. A replay
// window of SimCycles covers SimCycles·speedup trace cycles, so the jobs
// need only the head: fig13 at its highest target replays, of CNS and MOC,
// 73 and 145 of 16 000 trace cycles at Tiny (target 0.05), 15 % and 30 % at
// default scale (0.40), 74 % and all of it at -full (0.80).
//
// The head is the full trace's records before keep = ⌈SimCycles·max
// speedup⌉ + 1, generated at length keep. It is the same data:
//   - Prefix: each generator step draws all its random numbers before it
//     tests the send time against the end, each step's sends stay inside
//     its own window, and the sort is stable, so a trace generated at keep
//     cycles is the full trace's records with Time < keep, in order.
//   - Nothing past the head is offered: the replayer offers a record at
//     cycle now only when int64(Time/speedup) ≤ now, and Replay never steps
//     past cycle SimCycles−1, so a record at keep or later is due at
//     SimCycles or later at every target. Once the head runs out the
//     replayer reports no next injection, and the run fast-forwards to the
//     same end cycle as with the full trace.
func hpcTraces(o Options, nodes int) []hpcTrace {
	cfg := baseConfig(o)
	full := hpcLength(o)
	targets := hpcTargets(o)
	traces := make([]hpcTrace, len(hpcSources))
	for i, src := range hpcSources {
		seed := cfg.Seed + src.seed
		flits := float64(src.flits(full, seed))
		speedups := make([]float64, len(targets))
		for ti, target := range targets {
			// offered = flits / (duration/speedup) / nodes ⇒ speedup.
			speedups[ti] = target * float64(nodes) * float64(full) / flits
		}
		keep := full
		if k := math.Ceil(float64(cfg.SimCycles)*slices.Max(speedups)) + 1; k < float64(full) {
			keep = int64(k)
		}
		traces[i] = hpcTrace{head: src.gen(keep, seed), speedups: speedups}
	}
	return traces
}

// runHPCFigure is the shared driver for Figs. 13 and 15. Each trace's head
// (hpcTraces) is shared read-only by every target's jobs; each (trace,
// target, variant) replay is one orchestrator job.
func runHPCFigure(o Options, w io.Writer, name string, vs []simPoint, nodes int) error {
	traces := hpcTraces(o, nodes)
	targets := hpcTargets(o)

	var jobs []pointJob
	for _, tr := range traces {
		for ti, target := range targets {
			for _, v := range vs {
				v.Trace, v.Speedup = tr.head, tr.speedups[ti]
				jobs = append(jobs, job(fmt.Sprintf("%s/%s@%.2f/%s", name, tr.head.Name, target, v.Name), v))
			}
		}
	}
	outs, err := runJobs(o, jobs)
	if err != nil {
		return err
	}

	i := 0
	for _, tr := range traces {
		plot := &asciiPlot{Title: fmt.Sprintf("%s / %s: latency vs offered load", name, tr.head.Name)}
		perVariant := make(map[string][]Result)
		var order []string
		for ti, target := range targets {
			fmt.Fprintf(w, "--- %s / %s target=%.2f flits/cycle/node (speedup %.2f) ---\n",
				name, tr.head.Name, target, tr.speedups[ti])
			for _, v := range vs {
				r := outs[i][0].Result
				i++
				fmt.Fprintln(w, r)
				if _, seen := perVariant[v.Name]; !seen {
					order = append(order, v.Name)
				}
				perVariant[v.Name] = append(perVariant[v.Name], r)
			}
		}
		for _, vn := range order {
			plot.add(vn, perVariant[vn])
		}
		plot.render(w)
	}
	return emitResults(o, name, outs)
}

// runFig13 reproduces Figure 13: HPC traces (CNS and MOC) on the 1296-node
// hetero-PHY systems (6×6 chiplets of 6×6 nodes; the 1024 ranks spread
// across chiplet cores).
func runFig13(o Options, w io.Writer) error {
	cx := pick(o, 6, 4, 2)
	nx := pick(o, 6, 4, 4)
	vs := heteroPHYVariants(baseConfig(o), cx, cx, nx, nx)
	return runHPCFigure(o, w, "fig13", vs, cx*cx*nx*nx)
}

// runFig15 reproduces Figure 15: HPC traces on the 3136-node
// hetero-channel systems (8×8 chiplets of 7×7 nodes, ranks on core nodes).
func runFig15(o Options, w io.Writer) error {
	cx := pick(o, 8, 4, 2)
	nx := pick(o, 7, 7, 4)
	vs := heteroChannelVariants(baseConfig(o), cx, cx, nx, nx)
	return runHPCFigure(o, w, "fig15", vs, cx*cx*nx*nx)
}

// runFig17 reproduces Figure 17: average per-packet energy on the MOC
// trace. (a) hetero-PHY systems; (b) hetero-channel systems including the
// energy-efficient Eq. 5 bias.
func runFig17(o Options, w io.Writer) error {
	cfg := baseConfig(o)
	moc := trace.GenerateMOC(cfg.SimCycles, cfg.Seed+43)

	cxPHY := pick(o, 6, 4, 2)
	nxPHY := pick(o, 6, 4, 4)
	// At -tiny, 2×4 chiplets: on 2×2 the Eq. 5 bias changes no result.
	cxCh, cyCh := pick(o, 8, 4, 2), pick(o, 8, 4, 4)
	nCh := pick(o, 7, 7, 4)
	phyVars := energyVariantsPHY(cfg, cxPHY, cxPHY, nxPHY, nxPHY)
	chSet := energyChannelVariants(cfg, cxCh, cyCh, nCh, nCh)

	var jobs []pointJob
	// The two panels share system names, so each point's workload names
	// its panel.
	add := func(kind string, vs []simPoint) {
		for _, v := range vs {
			v.Trace, v.Speedup, v.Workload = moc, 1, moc.Name+"-"+kind
			jobs = append(jobs, job("fig17/"+kind+"/"+v.Name, v))
		}
	}
	add("phy", phyVars)
	add("channel", chSet)
	outs, err := runJobs(o, jobs)
	if err != nil {
		return err
	}

	printPoint := func(r Result) {
		fmt.Fprintf(w, "%-26s energy/pkt=%8.1f pJ (on-chip %.1f + interface %.1f)\n",
			r.System, r.EnergyPJ, r.EnergyOnChipPJ, r.EnergyIfacePJ)
	}
	fmt.Fprintln(w, "--- Fig 17(a): hetero-PHY on MOC ---")
	for i := range phyVars {
		printPoint(outs[i][0].Result)
	}
	fmt.Fprintln(w, "--- Fig 17(b): hetero-channel on MOC ---")
	for i := range chSet {
		printPoint(outs[len(phyVars)+i][0].Result)
	}
	return emitResults(o, "fig17", outs)
}
