package experiments

import (
	"fmt"
	"io"
	"strconv"

	"heteroif/internal/core"
	"heteroif/internal/fault"
	"heteroif/internal/network"
	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// serialPreferred is the no-failover strawman for the link-down scenario:
// it insists on the serial PHY and never falls back, so a dead serial wire
// starves it outright. Wrapping the same policy in a FailoverPolicy is the
// controlled comparison — identical preference, plus health monitoring.
type serialPreferred struct{}

func (serialPreferred) Name() string { return "serial-preferred" }
func (serialPreferred) Dispatch(st core.State, _ network.Flit) (core.PHY, bool) {
	return core.PHYSerial, st.SerialBudget > 0
}

// runFault evaluates link reliability end to end (Sec. 2.1's reliability
// gap): a seeded error model corrupts serial-PHY flits at a swept BER, the
// link-layer retry protocol recovers them, and scheduling policies with and
// without failure awareness are compared on latency, retry rate and
// delivered-packet integrity. A second scenario scripts a permanent
// serial-PHY outage mid-run: the failure-aware policy must keep the network
// live while the serial-only baseline starves.
func runFault(o Options, w io.Writer) error {
	cfg := baseConfig(o)
	cx := pick(o, 4, 4, 2)
	spec := func(pol core.Policy) topology.Spec {
		return topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: cx, ChipletsY: cx, NodesX: 4, NodesY: 4, Policy: pol}
	}
	bers := []float64{0, 1e-5, 1e-4, 1e-3}
	if o.Tiny {
		bers = []float64{0, 1e-3}
	}
	if o.FaultBER > 0 {
		bers = []float64{0, o.FaultBER}
	}
	// Policies are constructed inside each job: FailoverPolicy is stateful,
	// and sharing one instance across concurrent jobs would break the
	// bit-identical-for-any-jobs guarantee.
	policies := []struct {
		name string
		mk   func() core.Policy
	}{
		{"balanced", func() core.Policy { return core.Balanced{} }},
		{"failover", func() core.Policy { return core.NewFailoverPolicy(nil) }},
	}

	type relRow struct {
		res Result
		sum fault.Summary
	}
	const load = 0.1
	var jobs []pointJob
	rows := make([]*relRow, len(policies)*len(bers))
	for pi, pol := range policies {
		for bi, ber := range bers {
			pi, bi, pol, ber := pi, bi, pol, ber
			jobs = append(jobs, pointJob{
				key: fmt.Sprintf("fault/%s/ber-%g", pol.name, ber),
				run: func() ([]Result, error) {
					in, err := Build(cfg, spec(pol.mk()))
					if err != nil {
						return nil, err
					}
					defer in.release()
					// Serial BER dominates (long reach); the short-reach
					// parallel PHY runs two orders cleaner; on-chip wires
					// are ideal. BER 0 attaches nothing at all, making that
					// column the machinery-off baseline.
					fault.Attach(in.Net, fault.Config{
						SerialBER:   ber,
						ParallelBER: ber / 100,
						Seed:        o.FaultSeed,
					})
					chk := fault.NewIntegrityChecker(in.Net)
					if err := in.RunSynthetic(traffic.Uniform{}, load); err != nil {
						return nil, err
					}
					if drained, err := in.Net.Drain(); err != nil || !drained {
						return nil, fmt.Errorf("drain: drained=%v err=%v", drained, err)
					}
					if err := chk.Check(in.Net); err != nil {
						return nil, err
					}
					r := in.Measure("hetero-phy-"+pol.name, fmt.Sprintf("uniform-ber%g", ber), load)
					rows[pi*len(bers)+bi] = &relRow{res: r, sum: fault.Summarize(in.Net)}
					return []Result{r}, nil
				},
			})
		}
	}

	// Scenario 2: permanent serial-PHY outage at SimCycles/4 on every
	// adapter (plain serial wraparounds stay healthy — there is no
	// alternate PHY behind them to fail over to).
	type downRow struct {
		policy    string
		live      bool
		trips     uint64
		sum       fault.Summary
		delivered int64
		injected  int64
	}
	downAt := cfg.SimCycles / 4
	downPolicies := []struct {
		name string
		mk   func() core.Policy
	}{
		{"serial-preferred", func() core.Policy { return serialPreferred{} }},
		{"failover+serial-preferred", func() core.Policy { return core.NewFailoverPolicy(serialPreferred{}) }},
	}
	downRows := make([]*downRow, len(downPolicies))
	for i, pol := range downPolicies {
		i, pol := i, pol
		jobs = append(jobs, pointJob{
			key: "fault/serial-down/" + pol.name,
			run: func() ([]Result, error) {
				in, err := Build(cfg, spec(pol.mk()))
				if err != nil {
					return nil, err
				}
				defer in.release()
				fault.Attach(in.Net, fault.Config{
					Seed: o.FaultSeed,
					Events: []fault.Event{
						{Kind: fault.EventDown, Link: -1, Phy: fault.PhySerial, From: downAt, To: -1},
					},
				})
				chk := fault.NewIntegrityChecker(in.Net)
				row := &downRow{policy: pol.name}
				// The baseline is EXPECTED to starve or deadlock here —
				// that outcome is the data point, not a job failure.
				err = in.RunSynthetic(traffic.Uniform{}, 0.05)
				if err == nil {
					drained, derr := in.Net.Drain()
					row.live = derr == nil && drained && chk.Check(in.Net) == nil
				}
				row.sum = fault.Summarize(in.Net)
				row.delivered = in.Net.PacketsDelivered()
				row.injected = in.Net.PacketsInjected()
				for _, ad := range in.Topo.Adapters {
					if fp, ok := ad.Policy().(*core.FailoverPolicy); ok {
						row.trips += fp.Trips()
					}
				}
				downRows[i] = row
				return nil, nil
			},
		})
	}

	if _, err := runJobs(o, jobs); err != nil {
		return err
	}

	var all []Result
	var tbl [][]string
	fmt.Fprintf(w, "--- serial-BER sweep, uniform @ %.2f, hetero-PHY torus ---\n", load)
	for pi, pol := range policies {
		base := rows[pi*len(bers)]
		for bi, ber := range bers {
			row := rows[pi*len(bers)+bi]
			if row == nil {
				return fmt.Errorf("fault: missing row for %s/ber-%g", pol.name, ber)
			}
			degrade := row.res.MeanLatency / base.res.MeanLatency
			fmt.Fprintf(w, "%-22s ber=%-7g lat=%7.1f (x%.3f) retry-rate=%.4f retx=%d delivered-ok=true\n",
				pol.name, ber, row.res.MeanLatency, degrade, row.sum.RetryRate(), row.sum.Retransmits)
			all = append(all, row.res)
			tbl = append(tbl, []string{
				pol.name, strconv.FormatFloat(ber, 'g', -1, 64),
				strconv.FormatFloat(row.res.MeanLatency, 'f', 2, 64),
				strconv.FormatFloat(degrade, 'f', 4, 64),
				strconv.FormatFloat(row.sum.RetryRate(), 'f', 5, 64),
				strconv.FormatUint(row.sum.Transmits, 10),
				strconv.FormatUint(row.sum.Retransmits, 10),
				strconv.FormatUint(row.sum.Corrupted, 10),
				strconv.FormatUint(row.sum.Nacks, 10),
				strconv.FormatInt(int64(row.sum.Sites), 10),
				"true",
			})
		}
	}

	fmt.Fprintf(w, "\n--- scripted serial-PHY outage at cycle %d, uniform @ 0.05 ---\n", downAt)
	var dtbl [][]string
	for _, row := range downRows {
		if row == nil {
			return fmt.Errorf("fault: missing serial-down row")
		}
		fmt.Fprintf(w, "%-26s live=%-5v delivered=%d/%d trips=%d rescued=%d evicted=%d\n",
			row.policy, row.live, row.delivered, row.injected, row.trips, row.sum.Rescued, row.sum.Evicted)
		dtbl = append(dtbl, []string{
			row.policy, strconv.FormatBool(row.live),
			strconv.FormatInt(row.delivered, 10), strconv.FormatInt(row.injected, 10),
			strconv.FormatUint(row.trips, 10), strconv.FormatUint(row.sum.Rescued, 10),
		})
	}
	baseline, failover := downRows[0], downRows[1]
	if baseline.live {
		return fmt.Errorf("fault: serial-preferred baseline survived a permanent serial outage (delivered %d/%d) — starvation expected", baseline.delivered, baseline.injected)
	}
	if !failover.live {
		return fmt.Errorf("fault: failover policy did not keep the network live through the serial outage (delivered %d/%d, %d trips, %d rescued)",
			failover.delivered, failover.injected, failover.trips, failover.sum.Rescued)
	}
	if failover.trips == 0 || failover.sum.Rescued == 0 {
		return fmt.Errorf("fault: failover stayed live without tripping (%d) or rescuing (%d) — outage not exercised", failover.trips, failover.sum.Rescued)
	}
	// Each gap in the sequence costs one nack, and a timeout can add one;
	// more means the receiver is nacking its own replay (a retransmission
	// storm).
	for i, row := range rows {
		if s := row.sum; s.Nacks > s.Corrupted+s.Timeouts {
			return fmt.Errorf("fault: %s at BER %g drew %d nacks from %d corruptions and %d timeouts — retransmission storm",
				policies[i/len(bers)].name, bers[i%len(bers)], s.Nacks, s.Corrupted, s.Timeouts)
		}
	}

	fmt.Fprintln(w, "\nretry keeps delivery exactly-once at every BER; the failure-aware")
	fmt.Fprintln(w, "policy detects the dead serial PHY from retry telemetry, rescues the")
	fmt.Fprintln(w, "stuck flits onto the parallel PHY and keeps the network live where")
	fmt.Fprintln(w, "the serial-only baseline starves.")

	if err := emitResults(o, "fault", all); err != nil {
		return err
	}
	if err := emitTable(o, "fault-reliability",
		[]string{"policy", "serial_ber", "mean_latency", "latency_degradation", "retry_rate", "transmits", "retransmits", "corrupted", "nacks", "sites", "delivered_ok"}, tbl); err != nil {
		return err
	}
	return emitTable(o, "fault-failover",
		[]string{"policy", "live", "delivered", "injected", "trips", "rescued"}, dtbl)
}
