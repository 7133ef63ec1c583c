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
func (serialPreferred) Dispatch(st *core.State, _ network.Flit) (core.PHY, bool) {
	return core.PHYSerial, st.SerialBudget > 0
}

// serialDownAt scripts a permanent outage of every adapter's serial PHY
// from the given cycle on.
func serialDownAt(cycle int64) []fault.Event {
	return []fault.Event{{Kind: fault.EventDown, Link: -1, Phy: fault.PhySerial, From: cycle, To: -1}}
}

// faultSpec is the fault experiment's hetero-PHY torus under a policy.
func faultSpec(o Options, pol core.Policy) topology.Spec {
	cx := pick(o, 4, 4, 2)
	return topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: cx, ChipletsY: cx, NodesX: 4, NodesY: 4, Policy: pol}
}

// outagePoint is the fault experiment's second scenario under one policy:
// uniform 0.05 with every adapter's serial PHY dead from SimCycles/4 on.
func outagePoint(o Options, name string, pol core.Policy) simPoint {
	cfg := baseConfig(o)
	return simPoint{
		Name: name, Cfg: cfg, Spec: faultSpec(o, pol),
		Faults:  &fault.Config{Seed: o.FaultSeed, Events: serialDownAt(cfg.SimCycles / 4)},
		Pattern: traffic.Uniform{}, Rate: 0.05, Drain: true,
	}
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
	bers := []float64{0, 1e-5, 1e-4, 1e-3}
	if o.Tiny {
		bers = []float64{0, 1e-3}
	}
	if o.FaultBER > 0 {
		bers = []float64{0, o.FaultBER}
	}
	// Every point constructs its own policy: FailoverPolicy is stateful,
	// and sharing one instance across concurrent jobs would break the
	// bit-identical-for-any-jobs guarantee.
	policies := []struct {
		name string
		mk   func() core.Policy
	}{
		{"balanced", func() core.Policy { return core.Balanced{} }},
		{"failover", func() core.Policy { return core.NewFailoverPolicy(nil) }},
	}

	const load = 0.1
	var jobs []pointJob
	for _, pol := range policies {
		for _, ber := range bers {
			pt := simPoint{
				Name: "hetero-phy-" + pol.name, Cfg: cfg, Spec: faultSpec(o, pol.mk()),
				// Serial BER dominates (long reach); the short-reach parallel
				// PHY runs two orders cleaner; on-chip wires are ideal. BER 0
				// attaches nothing at all, making that column the
				// machinery-off baseline.
				Faults:  &fault.Config{SerialBER: ber, ParallelBER: ber / 100, Seed: o.FaultSeed},
				Pattern: traffic.Uniform{}, Rate: load, Workload: fmt.Sprintf("uniform-ber%g", ber),
				Drain: true,
			}
			jobs = append(jobs, job(fmt.Sprintf("fault/%s/ber-%g", pol.name, ber), pt))
		}
	}

	// Scenario 2: permanent serial-PHY outage at SimCycles/4 on every
	// adapter (plain serial wraparounds stay healthy — there is no
	// alternate PHY behind them to fail over to).
	downAt := cfg.SimCycles / 4
	downPolicies := []struct {
		name string
		mk   func() core.Policy
	}{
		{"serial-preferred", func() core.Policy { return serialPreferred{} }},
		{"failover+serial-preferred", func() core.Policy { return core.NewFailoverPolicy(serialPreferred{}) }},
	}
	downRows := make([]outcome, len(downPolicies))
	live := make([]bool, len(downPolicies))
	for i, pol := range downPolicies {
		pt := outagePoint(o, pol.name, pol.mk())
		jobs = append(jobs, pointJob{
			key: "fault/serial-down/" + pol.name,
			run: func(c *Cycles) ([]outcome, error) {
				// The baseline is EXPECTED to starve or deadlock here — that
				// outcome is the data point, not a job failure.
				var err error
				downRows[i], err = pt.run()
				c.add(downRows[i].cycles)
				live[i] = err == nil
				return nil, nil
			},
		})
	}

	outs, err := runJobs(o, jobs)
	if err != nil {
		return err
	}
	rows := outs[:len(policies)*len(bers)] // one outcome per BER point

	var tbl [][]string
	fmt.Fprintf(w, "--- serial-BER sweep, uniform @ %.2f, hetero-PHY torus ---\n", load)
	for pi, pol := range policies {
		base := rows[pi*len(bers)][0]
		for bi, ber := range bers {
			row := rows[pi*len(bers)+bi][0]
			degrade := row.MeanLatency / base.MeanLatency
			fmt.Fprintf(w, "%-22s ber=%-7g lat=%7.1f (x%.3f) retry-rate=%.4f retx=%d delivered-ok=true\n",
				pol.name, ber, row.MeanLatency, degrade, row.Faults.RetryRate(), row.Faults.Retransmits)
			tbl = append(tbl, []string{
				pol.name, strconv.FormatFloat(ber, 'g', -1, 64),
				strconv.FormatFloat(row.MeanLatency, 'f', 2, 64),
				strconv.FormatFloat(degrade, 'f', 4, 64),
				strconv.FormatFloat(row.Faults.RetryRate(), 'f', 5, 64),
				strconv.FormatUint(row.Faults.Transmits, 10),
				strconv.FormatUint(row.Faults.Retransmits, 10),
				strconv.FormatUint(row.Faults.Corrupted, 10),
				strconv.FormatUint(row.Faults.Nacks, 10),
				strconv.FormatInt(int64(row.Faults.Sites), 10),
				"true",
			})
		}
	}

	fmt.Fprintf(w, "\n--- scripted serial-PHY outage at cycle %d, uniform @ 0.05 ---\n", downAt)
	var dtbl [][]string
	for i, row := range downRows {
		name := downPolicies[i].name
		fmt.Fprintf(w, "%-26s live=%-5v delivered=%d/%d trips=%d rescued=%d evicted=%d\n",
			name, live[i], row.Delivered, row.Injected, row.Trips, row.Faults.Rescued, row.Faults.Evicted)
		dtbl = append(dtbl, []string{
			name, strconv.FormatBool(live[i]),
			strconv.FormatInt(row.Delivered, 10), strconv.FormatInt(row.Injected, 10),
			strconv.FormatUint(row.Trips, 10), strconv.FormatUint(row.Faults.Rescued, 10),
		})
	}
	baseline, failover := downRows[0], downRows[1]
	if live[0] {
		return fmt.Errorf("fault: serial-preferred baseline survived a permanent serial outage (delivered %d/%d) — starvation expected", baseline.Delivered, baseline.Injected)
	}
	if !live[1] {
		return fmt.Errorf("fault: failover policy did not keep the network live through the serial outage (delivered %d/%d, %d trips, %d rescued)",
			failover.Delivered, failover.Injected, failover.Trips, failover.Faults.Rescued)
	}
	if failover.Trips == 0 || failover.Faults.Rescued == 0 {
		return fmt.Errorf("fault: failover stayed live without tripping (%d) or rescuing (%d) — outage not exercised", failover.Trips, failover.Faults.Rescued)
	}
	// Each gap in the sequence costs one nack, and a timeout can add one;
	// more means the receiver is nacking its own replay (a retransmission
	// storm).
	for i, row := range rows {
		if s := row[0].Faults; s.Nacks > s.Corrupted+s.Timeouts {
			return fmt.Errorf("fault: %s at BER %g drew %d nacks from %d corruptions and %d timeouts — retransmission storm",
				policies[i/len(bers)].name, bers[i%len(bers)], s.Nacks, s.Corrupted, s.Timeouts)
		}
	}

	fmt.Fprintln(w, "\nretry keeps delivery exactly-once at every BER; the failure-aware")
	fmt.Fprintln(w, "policy detects the dead serial PHY from retry telemetry, rescues the")
	fmt.Fprintln(w, "stuck flits onto the parallel PHY and keeps the network live where")
	fmt.Fprintln(w, "the serial-only baseline starves.")

	if err := emitResults(o, "fault", outs); err != nil {
		return err
	}
	if err := emitTable(o, "fault-reliability",
		[]string{"policy", "serial_ber", "mean_latency", "latency_degradation", "retry_rate", "transmits", "retransmits", "corrupted", "nacks", "sites", "delivered_ok"}, tbl); err != nil {
		return err
	}
	return emitTable(o, "fault-failover",
		[]string{"policy", "live", "delivered", "injected", "trips", "rescued"}, dtbl)
}
