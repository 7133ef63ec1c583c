package experiments

import (
	"fmt"
	"io"
	"strconv"

	"heteroif/internal/collective"
	"heteroif/internal/core"
	"heteroif/internal/fault"
	"heteroif/internal/network"
	"heteroif/internal/topology"
)

// collectiveSpec names one collective shape at a given message size.
type collectiveSpec struct {
	name string
	mk   func(parts []network.NodeID, size int, compute int64) *collective.Program
}

// program binds the shape to a payload size and reduction delay, as a
// point's program over the chiplet leaders.
func (s collectiveSpec) program(size int, compute int64) func([]network.NodeID) *collective.Program {
	return func(leaders []network.NodeID) *collective.Program { return s.mk(leaders, size, compute) }
}

// collectiveShapes returns the swept collective programs. size is the
// per-participant payload in flits; compute the per-chunk reduction delay.
func collectiveShapes() []collectiveSpec {
	return []collectiveSpec{
		{"allreduce", func(ps []network.NodeID, size int, compute int64) *collective.Program {
			return collective.RingAllReduce(ps, size, compute)
		}},
		{"reduce-scatter", func(ps []network.NodeID, size int, compute int64) *collective.Program {
			return collective.ReduceScatter(ps, size, compute)
		}},
		{"all-gather", func(ps []network.NodeID, size int, _ int64) *collective.Program {
			return collective.AllGather(ps, size)
		}},
		{"all-to-all", func(ps []network.NodeID, size int, _ int64) *collective.Program {
			per := size / len(ps)
			if per < 1 {
				per = 1
			}
			return collective.AllToAll(ps, per, 4)
		}},
		{"dnn", func(ps []network.NodeID, size int, compute int64) *collective.Program {
			// A 3-layer data-parallel step: gradient volume and compute
			// both scale with the layer width.
			layers := []collective.Layer{
				{Name: "embed", Compute: 8 * int64(size), GradFlits: size},
				{Name: "mlp", Compute: 16 * int64(size), GradFlits: 2 * size},
				{Name: "head", Compute: 4 * int64(size), GradFlits: size / 2},
			}
			return collective.DNNTraining(ps, layers, compute)
		}},
	}
}

// runCollective is the `-exp collective` experiment: the paper's headline
// policies measured under bursty, barrier-synchronized collective traffic
// — policy × topology × collective × message-size, reporting collective
// completion time (end-to-end and per-step, with a communication/stall
// breakdown) instead of open-loop packet latency. A final scenario trips
// the serial PHY mid-collective and requires the failover policy to
// complete the collective anyway.
func runCollective(o Options, w io.Writer) error {
	cfg := baseConfig(o)
	// Closed-loop runs measure every packet: there is no steady state to
	// warm into, the transient IS the workload.
	cfg.WarmupCycles = 0
	cx := pick(o, 4, 4, 2)
	systems := []struct {
		name string
		sys  topology.System
		mk   func() core.Policy
	}{
		{"uniform-parallel-mesh", topology.UniformParallelMesh, func() core.Policy { return nil }},
		{"uniform-serial-torus", topology.UniformSerialTorus, func() core.Policy { return nil }},
		{"hetero-phy-balanced", topology.HeteroPHYTorus, func() core.Policy { return core.Balanced{} }},
		{"hetero-phy-perf-first", topology.HeteroPHYTorus, func() core.Policy { return core.PerformanceFirst{} }},
	}
	sizes := []int{pick(o, 256, 128, 64)}
	if !o.Tiny {
		sizes = append(sizes, pick(o, 2048, 1024, 0))
	}
	compute := int64(pick(o, 64, 64, 16))
	budget := int64(pick(o, 4_000_000, 2_000_000, 500_000))
	shapes := collectiveShapes()

	var jobs []pointJob
	for _, sys := range systems {
		for _, shape := range shapes {
			for _, size := range sizes {
				workload := fmt.Sprintf("%s-%d", shape.name, size)
				jobs = append(jobs, job("collective/"+sys.name+"/"+workload, simPoint{
					Name: sys.name, Cfg: cfg,
					Spec: topology.Spec{
						System: sys.sys, ChipletsX: cx, ChipletsY: cx,
						NodesX: 4, NodesY: 4, Policy: sys.mk(),
					},
					Program: shape.program(size, compute), Budget: budget,
					Workload: workload,
				}))
			}
		}
	}

	// Failover scenario: the same all-reduce with the serial PHY scripted
	// dead a third of the way through the healthy completion time. The
	// failure-aware policy must trip, rescue and complete the collective.
	// The outage cycle comes from the healthy run, so the pair is one job
	// that records no point; the checks come after the pool.
	failover := func(faults *fault.Config) simPoint {
		return simPoint{
			Name: "hetero-phy-failover", Cfg: cfg,
			Spec: topology.Spec{
				System: topology.HeteroPHYTorus, ChipletsX: cx, ChipletsY: cx,
				NodesX: 4, NodesY: 4, Policy: core.NewFailoverPolicy(serialPreferred{}),
			},
			Faults:  faults,
			Program: shapes[0].program(sizes[0], compute), Budget: budget, // allreduce
		}
	}
	var ref, down outcome
	var refErr, downErr error
	var downAt int64
	jobs = append(jobs, pointJob{
		key: fmt.Sprintf("collective/hetero-phy-failover/allreduce-%d", sizes[0]),
		run: func(c *Cycles) ([]outcome, error) {
			ref, refErr = failover(nil).run()
			c.add(ref.cycles)
			if refErr != nil {
				return nil, nil
			}
			downAt = ref.Report.Elapsed / 3
			down, downErr = failover(&fault.Config{Seed: o.FaultSeed, Events: serialDownAt(downAt)}).run()
			c.add(down.cycles)
			return nil, nil
		},
	})
	outs, err := runJobs(o, jobs)
	if err != nil {
		return err
	}
	outs = outs[:len(outs)-1] // the failover pair records no point

	fmt.Fprintf(w, "--- collective completion, %d×%d chiplets of 4×4, %d participants ---\n", cx, cx, cx*cx)
	var tbl [][]string
	for _, out := range outs {
		r, rep := out[0].Result, out[0].Report
		fmt.Fprintf(w, "%-24s %-18s elapsed=%7d comm=%7d stall=%7d algbw=%.4f pkts=%d\n",
			r.System, r.Workload, rep.Elapsed, rep.CommCycles, rep.StallCycles, r.Throughput, rep.Packets)
		tbl = append(tbl, []string{
			r.System, r.Workload,
			strconv.Itoa(rep.Participants),
			strconv.FormatInt(rep.Elapsed, 10),
			strconv.FormatInt(rep.CommCycles, 10),
			strconv.FormatInt(rep.StallCycles, 10),
			strconv.FormatFloat(r.Throughput, 'f', 5, 64),
			strconv.FormatInt(rep.Packets, 10),
			strconv.FormatInt(rep.Flits, 10),
			strconv.Itoa(len(rep.Steps)),
		})
	}

	// Per-step breakdown of the ring all-reduce on the balanced hetero-PHY
	// system at the largest size — the Fig.-style detail view.
	var stepTbl [][]string
	for _, out := range outs {
		row := out[0]
		if row.System != "hetero-phy-balanced" || row.Report.Name != "allreduce" {
			continue
		}
		if row.Workload != fmt.Sprintf("allreduce-%d", sizes[len(sizes)-1]) {
			continue
		}
		fmt.Fprintf(w, "\n--- %s on %s, per step ---\n", row.Workload, row.System)
		for _, s := range row.Report.Steps {
			fmt.Fprintf(w, "step %2d: msgs=%d offer=%6d done=%6d span=%5d overlap=%d\n",
				s.Step, s.Msgs, s.FirstOffer, s.LastDelivery, s.Span, s.Overlap)
			stepTbl = append(stepTbl, []string{
				strconv.Itoa(int(s.Step)), strconv.Itoa(s.Msgs),
				strconv.FormatInt(s.FirstOffer, 10), strconv.FormatInt(s.LastDelivery, 10),
				strconv.FormatInt(s.Span, 10), strconv.FormatInt(s.Overlap, 10),
			})
		}
	}

	if refErr != nil {
		return fmt.Errorf("collective: healthy failover reference: %w", refErr)
	}
	healthy := ref.Report
	if downErr != nil {
		return fmt.Errorf("collective: did not complete across the tripped serial PHY: %w", downErr)
	}
	outage, trips, sum := down.Report, down.Trips, down.Faults
	if trips == 0 {
		return fmt.Errorf("collective: serial outage at %d tripped nothing — scenario not exercised", downAt)
	}
	fmt.Fprintf(w, "\n--- serial-PHY outage at cycle %d during allreduce-%d ---\n", downAt, sizes[0])
	fmt.Fprintf(w, "healthy elapsed=%d  outage elapsed=%d (x%.2f)  trips=%d rescued=%d\n",
		healthy.Elapsed, outage.Elapsed, float64(outage.Elapsed)/float64(healthy.Elapsed), trips, sum.Rescued)
	fmt.Fprintln(w, "\nthe collective completes across the dead serial PHY: the failover")
	fmt.Fprintln(w, "policy detects starvation from retry telemetry and reroutes the")
	fmt.Fprintln(w, "remaining chunks onto the parallel wires.")

	if err := emitResults(o, "collective", outs); err != nil {
		return err
	}
	if err := emitTable(o, "collective-completion",
		[]string{"system", "workload", "participants", "elapsed", "comm_cycles", "stall_cycles", "algbw_flits_per_cycle", "packets", "flits", "steps"}, tbl); err != nil {
		return err
	}
	if err := emitTable(o, "collective-steps",
		[]string{"step", "msgs", "first_offer", "last_delivery", "span", "overlap"}, stepTbl); err != nil {
		return err
	}
	return emitTable(o, "collective-failover",
		[]string{"collective", "healthy_elapsed", "outage_elapsed", "down_at", "trips", "rescued"},
		[][]string{{
			fmt.Sprintf("allreduce-%d", sizes[0]),
			strconv.FormatInt(healthy.Elapsed, 10),
			strconv.FormatInt(outage.Elapsed, 10),
			strconv.FormatInt(downAt, 10),
			strconv.FormatUint(trips, 10),
			strconv.FormatUint(sum.Rescued, 10),
		}})
}
