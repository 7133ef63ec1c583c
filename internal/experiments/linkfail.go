package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"heteroif/internal/network"
	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// countTrue counts set entries (used to label fault-injection jobs).
func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// runLinkFail quantifies Sec. 9 "Fault tolerance": hetero-IF systems carry
// extra channel diversity, so killing a growing fraction of their
// *adaptive* channels (serial wraparounds / cube links) degrades latency
// gracefully while every packet still delivers over the escape subnetwork.
func runLinkFail(o Options, w io.Writer) error {
	cfg := baseConfig(o)
	rng := rand.New(rand.NewSource(cfg.Seed + 97))
	fracs := []float64{0, 0.1, 0.25, 0.5, 1.0}
	if o.Tiny {
		fracs = []float64{0, 0.5}
	}
	// At -tiny, 2×4 chiplets: on 2×2 no packet crosses a killable link.
	cx, cy := pick(o, 4, 4, 2), 4
	spec := func(sys topology.System) topology.Spec {
		return topology.Spec{System: sys, ChipletsX: cx, ChipletsY: cy, NodesX: 4, NodesY: 4}
	}
	systems := []topology.System{topology.HeteroPHYTorus, topology.HeteroChannel}

	// The kill decisions come from one rng consumed sequentially across
	// all fault levels (matching the historical draw order exactly), so
	// they are pre-rolled here — one probe build per system enumerates the
	// failable ports in deterministic order — and the simulations then run
	// as independent orchestrator jobs, each failing its links in a hook.
	type faultCase struct {
		sys       topology.System
		decisions []bool // one per failable port, in enumeration order
		failed    int    // links the hook could fail
	}
	var cases []*faultCase
	for _, sys := range systems {
		_, probe, err := topology.Build(cfg, spec(sys))
		if err != nil {
			return err
		}
		failable := 0
		for n := range probe.OutPorts {
			for port := 1; port < len(probe.OutPorts[n]); port++ {
				p := &probe.OutPorts[n][port]
				if p.Wrap || p.CubeDim >= 0 {
					failable++
				}
			}
		}
		for _, frac := range fracs {
			dec := make([]bool, failable)
			for i := range dec {
				dec[i] = rng.Float64() < frac
			}
			cases = append(cases, &faultCase{sys: sys, decisions: dec})
		}
	}

	// A point's workload carries its kill count: the fault levels of one
	// system share its name and the offered load.
	jobs := make([]pointJob, len(cases))
	for i, fc := range cases {
		killed := fmt.Sprintf("%d-killed", countTrue(fc.decisions))
		pt := simPoint{
			Name: fc.sys.String(), Cfg: cfg,
			Spec: spec(fc.sys), Pattern: traffic.Uniform{}, Rate: 0.1, Workload: "uniform-" + killed, Drain: true,
			Hook: func(in *Instance) error {
				idx := 0
				for n := range in.Topo.OutPorts {
					for port := 1; port < len(in.Topo.OutPorts[n]); port++ {
						p := &in.Topo.OutPorts[n][port]
						if !p.Wrap && p.CubeDim < 0 {
							continue
						}
						kill := fc.decisions[idx]
						idx++
						if kill && in.Topo.FailLink(network.NodeID(n), port) == nil {
							fc.failed++
						}
					}
				}
				return nil
			},
		}
		jobs[i] = job(fmt.Sprintf("linkfail/%v/%s", fc.sys, killed), pt)
	}
	outs, err := runJobs(o, jobs)
	if err != nil {
		return err
	}

	var rows [][]string
	for i, fc := range cases {
		if i%len(fracs) == 0 {
			fmt.Fprintf(w, "--- %s: uniform @ 0.1 with failed adaptive channels ---\n", fc.sys)
		}
		out := outs[i][0]
		delivered := out.Delivered == out.Injected
		fmt.Fprintf(w, "failed %3d/%3d adaptive links: lat=%7.1f cycles, all delivered=%v\n",
			fc.failed, len(fc.decisions), out.MeanLatency, delivered)
		rows = append(rows, []string{
			fc.sys.String(), strconv.Itoa(fc.failed), strconv.Itoa(len(fc.decisions)),
			strconv.FormatFloat(out.MeanLatency, 'f', 2, 64),
			strconv.FormatBool(delivered),
		})
		if !delivered {
			return fmt.Errorf("%v lost packets with %d faults", fc.sys, fc.failed)
		}
	}
	fmt.Fprintln(w, "\nall traffic delivered at every fault level: the escape subnetwork")
	fmt.Fprintln(w, "guarantees connectivity; the surviving adaptive channels soften the")
	fmt.Fprintln(w, "latency loss (Sec. 9: diversity improves fault tolerance).")
	return emitTable(o, "linkfail", []string{"system", "failed_links", "failable_links", "mean_latency", "all_delivered"}, rows)
}

// runCompromised evaluates the Sec. 2.2 "compromised interface" (BoW/UCIe-
// style middle ground: better latency than SerDes, better reach than AIB,
// outstanding at neither) as a simulated system — an extension beyond the
// paper's analytical Fig. 8 treatment. The compromised uniform interface is
// modeled with 3-flit/cycle links at 10-cycle delay and 0.7 pJ/bit
// (BoW-like, Table 1) on the torus wiring.
func runCompromised(o Options, w io.Writer) error {
	cfg := baseConfig(o)
	cc := pick(o, 4, 4, 2)
	bow := cfg
	bow.SerialBandwidth = 3
	bow.SerialDelay = 10
	bow.SerialPJPerBit = 0.7
	spec := func(s topology.System) topology.Spec {
		return topology.Spec{System: s, ChipletsX: cc, ChipletsY: cc, NodesX: 4, NodesY: 4}
	}
	vs := []simPoint{
		{Name: "uniform-parallel-mesh", Cfg: cfg, Spec: spec(topology.UniformParallelMesh)},
		{Name: "uniform-serial-torus", Cfg: cfg, Spec: spec(topology.UniformSerialTorus)},
		{Name: "compromised-bow-torus", Cfg: bow, Spec: spec(topology.UniformSerialTorus)},
		{Name: "hetero-phy-full", Cfg: cfg, Spec: spec(topology.HeteroPHYTorus)},
	}
	rates := []float64{0.05, 0.2, 0.4}
	var jobs []pointJob
	for _, rate := range rates {
		for _, v := range vs {
			v.Pattern, v.Rate = traffic.Uniform{}, rate
			jobs = append(jobs, job(fmt.Sprintf("compromised/uniform@%.2f/%s", rate, v.Name), v))
		}
	}
	outs, err := runJobs(o, jobs)
	if err != nil {
		return err
	}
	i := 0
	for _, rate := range rates {
		fmt.Fprintf(w, "--- compromised-IF comparison, uniform @ %.2f ---\n", rate)
		for range vs {
			r := outs[i][0].Result
			i++
			fmt.Fprintln(w, r)
		}
	}
	fmt.Fprintln(w, "\nthe compromised interface improves hugely on the serial torus and is")
	fmt.Fprintln(w, "honestly competitive at this scale: behind the mesh and hetero-IF at")
	fmt.Fprintln(w, "low load (its 10-cycle hop tax), ahead once the mesh saturates. What")
	fmt.Fprintln(w, "the flit-level model cannot show is the Sec. 2.2 structural point:")
	fmt.Fprintln(w, "BoW's 32 Gbps per-lane ceiling caps how far the 3-flit/cycle links")
	fmt.Fprintln(w, "scale, while the hetero-IF keeps the full serial data rate in reserve")
	fmt.Fprintln(w, "and the parallel PHY's energy at short reach.")
	return emitResults(o, "compromised", outs)
}
