// Package experiments builds complete systems (network + topology +
// routing + statistics) and contains one runner per table and figure of the
// paper's evaluation (Sec. 8). cmd/hetsim exposes them on the command line;
// bench_test.go at the repository root exposes them as Go benchmarks.
package experiments

import (
	"errors"
	"fmt"

	"heteroif/internal/collective"
	"heteroif/internal/core"
	"heteroif/internal/fault"
	"heteroif/internal/network"
	"heteroif/internal/routing"
	"heteroif/internal/stats"
	"heteroif/internal/topology"
	"heteroif/internal/trace"
	"heteroif/internal/traffic"
)

// Instance is a ready-to-run system: network, topology metadata, routing
// and a statistics collector wired into the packet sink.
type Instance struct {
	Net   *network.Network
	Topo  *topology.Topo
	Stats *stats.Collector
}

// Build constructs a system and attaches the matching routing algorithm.
func Build(cfg network.Config, spec topology.Spec) (*Instance, error) {
	return build(cfg, spec, 0)
}

// build is Build with the Eq. 5 bias of a hetero-channel system's routing
// (simPoint.Bias; 0 keeps the default), set before Finalize reads the
// routing's stability.
func build(cfg network.Config, spec topology.Spec, bias float64) (*Instance, error) {
	net, topo, err := topology.Build(cfg, spec)
	if err != nil {
		return nil, err
	}
	alg, err := routing.ForSystem(topo, &net.Cfg)
	if err != nil {
		return nil, err
	}
	if hc, ok := alg.(*routing.HeteroChannel); ok && bias > 0 {
		hc.Bias = bias
	}
	net.Routing = alg
	in := &Instance{Net: net, Topo: topo, Stats: &stats.Collector{Warmup: cfg.WarmupCycles}}
	net.Sink = func(p *network.Packet) {
		in.Stats.Record(stats.Measured{
			Class:          uint8(p.Class),
			CreatedAt:      p.CreatedAt,
			InjectedAt:     p.InjectedAt,
			ArrivedAt:      p.ArrivedAt,
			Length:         p.Length,
			EnergyPJ:       p.EnergyPJ,
			EnergyOnChipPJ: p.EnergyOnChipPJ,
			EnergyIfacePJ:  p.EnergyIfacePJ,
			HopsOnChip:     p.HopsOnChip,
			HopsParallel:   p.HopsParallel,
			HopsSerial:     p.HopsSerial,
			HopsHetero:     p.HopsHetero,
		})
	}
	// Shard the stepper along chiplet rows so cross-shard traffic rides the
	// D2D interface links. Finalize picks the shard count from cfg.Workers
	// (0 = by system size, then by load as well).
	net.SetShardCuts(topo.ShardCuts())
	net.Finalize()
	// A generous hop bound (several diameters) catches any residual
	// wandering — reachable only under fault injection, where the torus
	// weighted-distance heuristic can point at a dead wraparound.
	net.LivelockHopBound = 6 * (topo.GX + topo.GY)
	return in, nil
}

// simPoint declares one simulation: the system, what to arm on it, exactly
// one workload and whether to drain. run builds, drives, drains, checks and
// measures it. A point without a workload names a system under comparison;
// callers complete it with one.
type simPoint struct {
	Name string // the Result's system label
	Cfg  network.Config
	Spec topology.Spec

	// Bias, when positive, replaces the hetero-channel routing with one
	// that weighs serial hops by Bias in the Eq. 5 subnetwork selection.
	Bias float64
	// Faults, when non-nil, arms the error model and an integrity checker
	// that every injected packet must pass exactly once.
	Faults *fault.Config
	// Hook runs on the built instance after the faults attach and before
	// any traffic: failing links, wrapping the sink.
	Hook func(*Instance) error

	// The workload: a synthetic pattern at an offered load
	// (flits/cycle/node), a trace replayed at a time compression, or a
	// closed-loop collective over the chiplet leaders, run to completion
	// within Budget cycles.
	Pattern traffic.Pattern
	Rate    float64
	Trace   *trace.Trace
	Speedup float64
	Program func(leaders []network.NodeID) *collective.Program
	Budget  int64
	// Workload labels the Result; empty takes the pattern's or trace's name.
	Workload string

	// Drain runs the network empty after the workload and fails the point
	// if it does not.
	Drain bool
}

// outcome is as far as a run got. Result is set once every check passed;
// the rest is filled in on every exit path after Build, because a
// starving baseline's counters are data, not an error.
type outcome struct {
	Result
	Report              collective.Report // of a collective workload
	Faults              fault.Summary
	Trips               uint64 // failover trips over every adapter
	Injected, Delivered int64  // packets
	cycles              Cycles // what the engine did, for the job's cost row
}

// minPatience is the least deadlock threshold simPoint.patience picks.
const minPatience = 1000

// patience is the point's deadlock threshold: how long its run may stand
// with flits in flight and nothing moving before only a deadlock explains
// it (DESIGN.md "Patience"). After a cycle without movement only a timer
// can restart the run: a flit or credit in a delay line, a retry timeout,
// the failover monitor's windows, probe and eviction age, or the end of a
// scripted fault window. The patience is four times the longest delay, a
// cycle, the retry timeout and the failover timers, plus the longest
// finite fault window, floored at minPatience and never above the
// configured threshold (0, the watchdog off, stays off).
func (p simPoint) patience() int64 {
	limit := p.Cfg.DeadlockThreshold
	if limit <= 0 {
		return limit
	}
	delay := int64(max(p.Cfg.OnChipDelay, p.Cfg.ParallelDelay, p.Cfg.SerialDelay))
	timeout := 4*delay + 16 // NewRetryPipe's default
	var window int64
	if f := p.Faults; f != nil {
		if f.Timeout > 0 {
			timeout = int64(f.Timeout)
		}
		for _, e := range f.Events {
			if e.To >= 0 {
				window = max(window, e.To-e.From)
			}
		}
	}
	timeout = max(timeout, 2*delay+2) // NewRetryPipe's floor
	var failover int64
	if fp, ok := p.Spec.Policy.(*core.FailoverPolicy); ok {
		failover = int64(fp.RecoverWindows)*fp.Window + fp.ProbeInterval + fp.EvictAge
	}
	return min(limit, max(minPatience, 4*(delay+1+timeout+failover)+window))
}

// run builds the point's system, drives its workload, drains, checks
// credit conservation and (under faults) exactly-once delivery, and
// measures, its deadlock watchdog set to the point's patience. Its shard
// workers stop on every exit path, so a point's goroutines end when it
// returns; the network stays readable as one shard.
func (p simPoint) run() (out outcome, err error) {
	if p.Bias > 0 && p.Spec.System != topology.HeteroChannel {
		return out, fmt.Errorf("experiments: %s: an Eq. 5 bias needs a hetero-channel system", p.Name)
	}
	p.Cfg.DeadlockThreshold = p.patience()
	in, err := build(p.Cfg, p.Spec, p.Bias)
	if err != nil {
		return out, err
	}
	defer func() {
		net := in.Net
		out.cycles = Cycles{Stepped: net.Steps(), Skipped: net.Now - net.Steps(), Shards: net.Workers()}
		net.SetWorkers(0)
		out.Faults = fault.Summarize(net)
		for _, ad := range in.Topo.Adapters {
			if fp, ok := ad.Policy().(*core.FailoverPolicy); ok {
				out.Trips += fp.Trips()
			}
		}
		out.Injected, out.Delivered = net.PacketsInjected(), net.PacketsDelivered()
	}()
	var chk *fault.IntegrityChecker
	if p.Faults != nil {
		fault.Attach(in.Net, *p.Faults)
		chk = fault.NewIntegrityChecker(in.Net)
	}
	if p.Hook != nil {
		if err := p.Hook(in); err != nil {
			return out, err
		}
	}
	workload, rate, err := p.drive(in, &out.Report)
	if p.Workload != "" {
		workload = p.Workload
	}
	if err != nil {
		// Deadlock or other engine failure: report, don't fabricate data.
		return out, fmt.Errorf("%s/%s: %w", p.Name, workload, err)
	}
	if p.Drain {
		if drained, err := in.Net.Drain(); err != nil || !drained {
			msg := fmt.Sprintf("%s/%s: drain: drained=%v err=%v (%d flits in flight)", p.Name, workload, drained, err, in.Net.InFlightFlits())
			if err == nil {
				// The watchdog's error already says why; a drain that ran
				// out of cycles says it the same way.
				msg += ": " + in.Net.StallSummary()
			}
			return out, errors.New(msg)
		}
	}
	if err := in.Net.CheckCredits(); err != nil {
		return out, fmt.Errorf("%s/%s: %w", p.Name, workload, err)
	}
	if chk != nil {
		if err := chk.Check(in.Net); err != nil {
			return out, fmt.Errorf("%s/%s: %w", p.Name, workload, err)
		}
	}
	out.Result = in.Measure(p.Name, workload, rate)
	if p.Program != nil {
		// Closed loop: no offered load to saturate; Throughput is the
		// algorithmic bandwidth in flits/cycle/participant.
		out.Saturated = false
		if rep := out.Report; rep.Elapsed > 0 {
			out.Throughput = float64(rep.Flits) / float64(rep.Elapsed) / float64(rep.Participants)
		}
	}
	return out, nil
}

// drive runs the point's one workload and returns its name and the offered
// load to measure it at.
func (p simPoint) drive(in *Instance, rep *collective.Report) (string, float64, error) {
	switch {
	case p.Pattern != nil:
		// Non-participating sources inject nothing, so saturation is judged
		// against the effective load. Where all take part the declared rate
		// stands as is, bit for bit.
		rate, n := p.Rate, in.Topo.N
		if k := traffic.Participants(p.Pattern, n); k != n {
			rate = p.Rate * float64(k) / float64(n)
		}
		return p.Pattern.Name(), rate, in.RunSynthetic(p.Pattern, p.Rate)
	case p.Trace != nil:
		rate, err := in.Replay(p.Trace, p.Speedup)
		return p.Trace.Name, rate, err
	case p.Program != nil:
		eng, err := collective.NewEngine(in.Net, p.Program(in.Topo.ChipletLeaders()))
		if err != nil {
			return "", 0, err
		}
		*rep, err = eng.Run(p.Budget)
		return "", 0, err
	}
	return "", 0, fmt.Errorf("experiments: point %s declares no workload", p.Name)
}

// RunSynthetic drives the instance with a synthetic pattern at the given
// offered load (flits/cycle/node) for cfg.SimCycles cycles. A negative or
// NaN load is refused.
func (in *Instance) RunSynthetic(p traffic.Pattern, rate float64) error {
	if !(rate >= 0) {
		return fmt.Errorf("experiments: offered load %v must be a non-negative number", rate)
	}
	gen := traffic.NewGenerator(in.Net, p, rate, in.Net.Cfg.Seed+17)
	return in.Net.Run(in.Net.Cfg.SimCycles-in.Net.Now, gen.Drive)
}

// Replay injects a trace into the instance, its ranks spread over each
// chiplet's core nodes (wrapping when there are more ranks than core
// nodes), time-compressed by speedup (1 = as recorded), and runs for
// cfg.SimCycles cycles. It returns the load offered in the measurement
// window (flits/cycle/node), co-located sends excluded.
func (in *Instance) Replay(tr *trace.Trace, speedup float64) (offered float64, err error) {
	m, err := rankMap(in.Topo, int(tr.Ranks))
	if err != nil {
		return 0, err
	}
	rp, err := trace.NewReplayer(tr, in.Net, m, speedup)
	if err != nil {
		return 0, err
	}
	rp.MeasureFrom = in.Net.Cfg.WarmupCycles
	// Trace gaps are fast-forwarded: the replayer publishes its next
	// injection time, so idle stretches between communication phases cost
	// nothing.
	err = in.Net.RunWith(in.Net.Cfg.SimCycles, rp.Drive, rp.NextInjection)
	return rp.ActualOfferedRate(in.Net.Now, in.Topo.N), err
}

// Result is one measured operating point. The JSON tags define the
// machine-readable manifest row format (see Manifest); renaming a field is
// a manifest schema change.
type Result struct {
	System         string  `json:"system"`
	Workload       string  `json:"workload"`
	Rate           float64 `json:"offered_rate"` // offered flits/cycle/node
	MeanLatency    float64 `json:"mean_latency"` // cycles, creation→delivery
	NetLatency     float64 `json:"net_latency"`  // cycles, injection→delivery
	P99Latency     int64   `json:"p99_latency"`
	StdDev         float64 `json:"stddev"`
	Throughput     float64 `json:"throughput"`        // accepted flits/cycle/node
	EnergyPJ       float64 `json:"energy_pj_per_pkt"` // per packet
	EnergyOnChipPJ float64 `json:"energy_onchip_pj"`
	EnergyIfacePJ  float64 `json:"energy_iface_pj"`
	Packets        int64   `json:"packets"`
	HopsOnChip     float64 `json:"hops_onchip"`
	HopsIface      float64 `json:"hops_iface"` // parallel+serial+hetero
	Saturated      bool    `json:"saturated"`
}

// Measure summarizes the instance's collector into a Result.
func (in *Instance) Measure(system, workload string, rate float64) Result {
	c := in.Stats
	window := in.Net.Now - in.Net.Cfg.WarmupCycles
	oc, pa, se, he := c.MeanHops()
	eOn, eIf := c.MeanEnergyBreakdownPJ()
	r := Result{
		System:         system,
		Workload:       workload,
		Rate:           rate,
		MeanLatency:    c.MeanLatency(),
		NetLatency:     c.MeanNetLatency(),
		P99Latency:     c.Percentile(0.99),
		StdDev:         c.LatencyStdDev(),
		Throughput:     c.Throughput(window, in.Topo.N),
		EnergyPJ:       c.MeanEnergyPJ(),
		EnergyOnChipPJ: eOn,
		EnergyIfacePJ:  eIf,
		Packets:        c.Count(),
		HopsOnChip:     oc,
		HopsIface:      pa + se + he,
	}
	// A network is saturated when it accepts meaningfully less than
	// offered or when queues grew without bound during the run.
	if rate > 0 && r.Throughput < 0.85*rate {
		r.Saturated = true
	}
	if in.Net.QueuedPackets() > in.Topo.N {
		r.Saturated = true
	}
	return r
}

// String renders a result row.
func (r Result) String() string {
	return fmt.Sprintf("%-26s %-18s rate=%.3f lat=%8.1f net=%8.1f p99=%6d thr=%.4f e/pkt=%7.1fpJ sat=%v",
		r.System, r.Workload, r.Rate, r.MeanLatency, r.NetLatency, r.P99Latency, r.Throughput, r.EnergyPJ, r.Saturated)
}
