package experiments

import (
	"fmt"
	"io"
	"strconv"

	"heteroif/internal/core"
	"heteroif/internal/network"
	"heteroif/internal/phymodel"
	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// runTable1 prints the interface specification constants (Table 1).
func runTable1(o Options, w io.Writer) error {
	fmt.Fprintf(w, "%-8s %14s %12s %12s %10s\n", "IF", "DataRate(Gbps)", "Latency(ns)", "Power(pJ/b)", "Reach(mm)")
	var rows [][]string
	for _, s := range phymodel.Table1() {
		fmt.Fprintf(w, "%-8s %14.1f %12.1f %12.2f %10.0f\n", s.Name, s.DataRateGbps, s.LatencyNS, s.PJPerBit, s.ReachMM)
		rows = append(rows, []string{s.Name,
			strconv.FormatFloat(s.DataRateGbps, 'f', 1, 64),
			strconv.FormatFloat(s.LatencyNS, 'f', 1, 64),
			strconv.FormatFloat(s.PJPerBit, 'f', 2, 64),
			strconv.FormatFloat(s.ReachMM, 'f', 0, 64)})
	}
	return emitTable(o, "table1", []string{"interface", "data_rate_gbps", "latency_ns", "pj_per_bit", "reach_mm"}, rows)
}

// runFig08 emits the V–t curves of Eq. 2 for the uniform, compromised and
// heterogeneous interfaces, in Table 2 units (flits/cycle, cycles).
// (a) full interfaces; (b) pin-constrained halves (the total I/O count of
// the hetero-IF matches one full uniform interface).
func runFig08(o Options, w io.Writer) error {
	parallel := phymodel.Interface{Name: "parallel", Bandwidth: 2, Delay: 5}
	serial := phymodel.Interface{Name: "serial", Bandwidth: 4, Delay: 20}
	compromised := phymodel.Interface{Name: "compromised", Bandwidth: 3, Delay: 10}
	heteroFull := phymodel.HeteroIF{Parallel: parallel, Serial: serial}
	heteroHalf := phymodel.HeteroIF{
		Parallel: phymodel.Interface{Name: "parallel/2", Bandwidth: 1, Delay: 5},
		Serial:   phymodel.Interface{Name: "serial/2", Bandwidth: 2, Delay: 20},
	}

	fmt.Fprintln(w, "V(t) in flits (Eq. 2), t in cycles")
	fmt.Fprintf(w, "%6s %10s %10s %12s %12s %12s\n", "t", "parallel", "serial", "compromised", "hetero-full", "hetero-half")
	var rows [][]string
	for t := int64(0); t <= 60; t += 5 {
		ft := float64(t)
		vals := []float64{parallel.V(ft), serial.V(ft), compromised.V(ft), heteroFull.V(ft), heteroHalf.V(ft)}
		fmt.Fprintf(w, "%6d %10.1f %10.1f %12.1f %12.1f %12.1f\n", t, vals[0], vals[1], vals[2], vals[3], vals[4])
		row := []string{strconv.FormatInt(t, 10)}
		for _, v := range vals {
			row = append(row, strconv.FormatFloat(v, 'f', 1, 64))
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(w, "\ncrossover serial-over-parallel at t=%.1f cycles\n", phymodel.CrossoverTime(parallel, serial))
	fmt.Fprintf(w, "Fig 8(a) property: hetero-full(t) >= max(parallel, serial) for all t (combines both advantages)\n")
	fmt.Fprintf(w, "Fig 8(b) property: hetero-half keeps the parallel t-intercept (%.0f cycles) with %d%% of the serial slope\n",
		heteroHalf.Parallel.Delay, 50)
	return emitTable(o, "fig08", []string{"t", "parallel", "serial", "compromised", "hetero_full", "hetero_half"}, rows)
}

// fig11Rates returns the injection-rate grid for the pattern sweeps.
func fig11Rates(o Options) []float64 {
	if o.Tiny {
		return []float64{0.05, 0.2}
	}
	if o.Full {
		return []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.60, 0.70}
	}
	return []float64{0.02, 0.10, 0.20, 0.30, 0.45}
}

// runPatternFigure is the shared driver for Figs. 11 and 14: a latency-vs-
// injection sweep over the six synthetic patterns and four systems. Each
// (pattern, variant) rate sweep is one orchestrator job — the patterns are
// immutable after construction, and every point builds its own instance,
// so the jobs are independent and the results identical at any o.Jobs.
func runPatternFigure(o Options, w io.Writer, name string, variants []simPoint, n int) error {
	pats := traffic.Patterns(n, baseConfig(o).Seed+5)
	if o.Tiny {
		pats = pats[:2] // uniform + hotspot
	}
	rates := fig11Rates(o)
	var jobs []pointJob
	for _, pat := range pats {
		for _, v := range variants {
			v.Pattern = pat
			jobs = append(jobs, sweepRates(fmt.Sprintf("%s/%s/%s", name, pat.Name(), v.Name), v, rates))
		}
	}
	outs, err := runJobs(o, jobs)
	i := 0
	for _, pat := range pats {
		fmt.Fprintf(w, "--- %s / %s ---\n", name, pat.Name())
		plot := &asciiPlot{Title: fmt.Sprintf("%s / %s: latency vs injection rate", name, pat.Name())}
		for _, v := range variants {
			var rs []Result
			for _, out := range outs[i] {
				fmt.Fprintln(w, out.Result)
				rs = append(rs, out.Result)
			}
			i++
			plot.add(v.Name, rs)
		}
		plot.render(w)
	}
	if e := emitResults(o, name, outs); err == nil {
		err = e
	}
	return err
}

// runFig11 reproduces Figure 11: hetero-PHY-based 2D-torus vs the uniform
// baselines on six traffic patterns, 4×4 chiplets of 4×4 nodes (256 nodes).
func runFig11(o Options, w io.Writer) error {
	c := pick(o, 4, 4, 2)
	vs := heteroPHYVariants(baseConfig(o), c, c, 4, 4)
	return runPatternFigure(o, w, "fig11", vs, c*c*16)
}

// runFig14 reproduces Figure 14: hetero-channel vs uniform mesh/hypercube
// on six traffic patterns. Full mode uses the paper's 8×8 chiplets of 7×7
// nodes (3136 nodes); short mode scales down to 4×4 chiplets of 7×7 nodes
// (784 nodes) to stay CI-runnable.
func runFig14(o Options, w io.Writer) error {
	cx := pick(o, 8, 4, 2)
	nx := pick(o, 7, 7, 4)
	vs := heteroChannelVariants(baseConfig(o), cx, cx, nx, nx)
	return runPatternFigure(o, w, "fig14", vs, cx*cx*nx*nx)
}

// runTable3 reproduces Table 3: average latency reduction of the hetero-IF
// systems vs both uniform baselines at 0.1 flits/cycle/node uniform
// traffic, across five system scales.
func runTable3(o Options, w io.Writer) error {
	type scale struct {
		label          string
		cx, cy, nx, ny int
		heteroChannel  bool // hypercube systems need ≥4 power-of-2 chiplets
	}
	scales := []scale{
		{"4x(2x2)", 2, 2, 2, 2, true},
		{"16x(2x2)", 4, 4, 2, 2, true},
		{"16x(4x4)", 4, 4, 4, 4, true},
		{"16x(6x6)", 4, 4, 6, 6, true},
		{"64x(7x7)", 8, 8, 7, 7, true},
	}
	// The paper reports hetero-channel only for the three largest scales.
	scales[0].heteroChannel = false
	scales[1].heteroChannel = false
	if o.Tiny {
		scales = scales[:3]
	}

	cfg := baseConfig(o)

	// One job per measured system per scale (3 hetero-PHY comparisons
	// everywhere, plus 2 hetero-channel systems at the larger scales), its
	// workload labelled with the scale so that every point is told apart.
	var jobs []pointJob
	for _, s := range scales {
		phyVars := heteroPHYVariants(cfg, s.cx, s.cy, s.nx, s.ny)
		vs := phyVars[:3]
		if s.heteroChannel {
			chVars := heteroChannelVariants(cfg, s.cx, s.cy, s.nx, s.ny)
			vs = append(vs, chVars[1], chVars[2])
		}
		for _, v := range vs {
			v.Pattern, v.Rate, v.Workload = traffic.Uniform{}, 0.1, "uniform-"+s.label
			jobs = append(jobs, job(fmt.Sprintf("table3/%s/%s", s.label, v.Name), v))
		}
	}
	outs, err := runJobs(o, jobs)
	if err != nil {
		return err
	}
	lat := func(i int) float64 { return outs[i][0].MeanLatency }

	fmt.Fprintf(w, "%-10s %-16s %-16s\n", "Scale", "Hetero-PHY", "Hetero-Channel")
	var rows [][]string
	i := 0
	for _, s := range scales {
		latPar, latSer, latPHY := lat(i), lat(i+1), lat(i+2)
		i += 3
		phyRed := fmt.Sprintf("%.1f%% / %.1f%%", 100*(1-latPHY/latPar), 100*(1-latPHY/latSer))
		chRed := "-"
		if s.heteroChannel {
			latCube, latCh := lat(i), lat(i+1)
			i += 2
			chRed = fmt.Sprintf("%.1f%% / %.1f%%", 100*(1-latCh/latPar), 100*(1-latCh/latCube))
		}
		fmt.Fprintf(w, "%-10s %-16s %-16s\n", s.label, phyRed, chRed)
		rows = append(rows, []string{s.label, phyRed, chRed})
	}
	return emitTable(o, "table3", []string{"scale", "hetero_phy_vs_parallel/serial", "hetero_channel_vs_parallel/serial"}, rows)
}

// energyVariantsPHY returns the Fig. 16(a)/17(a) systems: the two uniform
// baselines plus hetero-PHY with balanced and with energy-efficient
// adapter scheduling.
func energyVariantsPHY(cfg network.Config, cx, cy, nx, ny int) []simPoint {
	spec := func(s topology.System, pol core.Policy) topology.Spec {
		return topology.Spec{System: s, ChipletsX: cx, ChipletsY: cy, NodesX: nx, NodesY: ny, Policy: pol}
	}
	return []simPoint{
		{Name: "uniform-parallel-mesh", Cfg: cfg, Spec: spec(topology.UniformParallelMesh, nil)},
		{Name: "uniform-serial-torus", Cfg: cfg, Spec: spec(topology.UniformSerialTorus, nil)},
		{Name: "hetero-phy-balanced", Cfg: cfg, Spec: spec(topology.HeteroPHYTorus, nil)},
		{Name: "hetero-phy-energy-eff", Cfg: cfg, Spec: spec(topology.HeteroPHYTorus, core.EnergyEfficient{})},
	}
}

// energyChannelVariants returns the Fig. 16(b)/17(b) systems: the two
// uniform baselines, hetero-channel, and hetero-channel with the Eq. 5 bias
// set to the serial/parallel energy ratio.
func energyChannelVariants(cfg network.Config, cx, cy, nx, ny int) []simPoint {
	vs := heteroChannelVariants(cfg, cx, cy, nx, ny)
	eff := vs[2]
	eff.Name = "hetero-channel-energy-eff"
	eff.Bias = cfg.SerialPJPerBit / cfg.ParallelPJPerBit
	return append(vs[:3], eff)
}

// runFig16 reproduces Figure 16: average per-packet energy on uniform
// traffic at 0.1 flits/cycle/node. (a) hetero-PHY on the large 2D system
// (6×6 chiplets of 6×6 nodes); (b) hetero-channel on the large cube system.
func runFig16(o Options, w io.Writer) error {
	cfg := baseConfig(o)
	cp := pick(o, 6, 6, 2)
	np := pick(o, 6, 6, 4)
	// At -tiny, 2×4 chiplets: on 2×2 the Eq. 5 bias changes no result.
	cx, cy := pick(o, 8, 4, 2), pick(o, 8, 4, 4)
	nn := pick(o, 7, 7, 4)

	var jobs []pointJob
	phyVars := energyVariantsPHY(cfg, cp, cp, np, np)
	chSet := energyChannelVariants(cfg, cx, cy, nn, nn)
	// The two panels share system names, so each point's workload names
	// its panel.
	add := func(kind string, vs []simPoint) {
		for _, v := range vs {
			v.Pattern, v.Rate, v.Workload = traffic.Uniform{}, 0.1, "uniform-"+kind
			jobs = append(jobs, job("fig16/"+kind+"/"+v.Name, v))
		}
	}
	add("phy", phyVars)
	add("channel", chSet)
	outs, err := runJobs(o, jobs)
	if err != nil {
		return err
	}

	printPoint := func(r Result) {
		fmt.Fprintf(w, "%-26s energy/pkt=%8.1f pJ (on-chip %.1f + interface %.1f), lat=%.1f\n",
			r.System, r.EnergyPJ, r.EnergyOnChipPJ, r.EnergyIfacePJ, r.MeanLatency)
	}
	fmt.Fprintf(w, "--- Fig 16(a): hetero-PHY, %dx%d chiplets of %dx%d nodes, uniform @ 0.1 ---\n", cp, cp, np, np)
	for i := range phyVars {
		printPoint(outs[i][0].Result)
	}
	fmt.Fprintf(w, "--- Fig 16(b): hetero-channel, %dx%d chiplets of %dx%d nodes, uniform @ 0.1 ---\n", cx, cy, nn, nn)
	for i := range chSet {
		printPoint(outs[len(phyVars)+i][0].Result)
	}
	return emitResults(o, "fig16", outs)
}

// runFig18 reproduces Figure 18: average per-packet energy as the traffic
// locality scale varies (communication confined to k×k chiplet blocks),
// uniform @ 0.01 flits/cycle/node, on the hetero-channel system.
func runFig18(o Options, w io.Writer) error {
	cfg := baseConfig(o)
	cx := pick(o, 8, 4, 2)
	nn := pick(o, 7, 7, 4)
	scales := []int{1, 2, 4, 8}
	if !o.Full {
		scales = []int{1, 2, 4}
	}
	if o.Tiny {
		scales = []int{1, 2}
	}
	vars := heteroChannelVariants(cfg, cx, cx, nn, nn)[:3]
	var jobs []pointJob
	for _, k := range scales {
		pat := &traffic.LocalUniform{
			ChipletsX: cx, NodesX: nn, NodesY: nn, GX: cx * nn,
			BlockChiplets: k,
		}
		for _, v := range vars {
			v.Pattern, v.Rate = pat, 0.01
			jobs = append(jobs, job(fmt.Sprintf("fig18/scale%d/%s", k, v.Name), v))
		}
	}
	outs, err := runJobs(o, jobs)
	if err != nil {
		return err
	}
	i := 0
	for _, k := range scales {
		fmt.Fprintf(w, "--- Fig 18: local scale %dx%d chiplets ---\n", k, k)
		for range vars {
			r := outs[i][0].Result
			i++
			fmt.Fprintf(w, "%-26s scale=%d energy/pkt=%8.1f pJ (on-chip %.1f + interface %.1f)\n",
				r.System, k, r.EnergyPJ, r.EnergyOnChipPJ, r.EnergyIfacePJ)
		}
	}
	return emitResults(o, "fig18", outs)
}
