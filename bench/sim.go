package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"heteroif/internal/collective"
	"heteroif/internal/core"
	"heteroif/internal/experiments"
	"heteroif/internal/fault"
	"heteroif/internal/network"
	"heteroif/internal/routing"
	"heteroif/internal/stats"
	"heteroif/internal/topology"
	"heteroif/internal/trace"
	"heteroif/internal/traffic"
)

// scale indexes the per-workload size tables: std is what the ledger
// reports, tiny is for the test suite only.
type scale int

const (
	std scale = iota
	tiny
)

func (s scale) String() string { return [...]string{"std", "tiny"}[s] }

type driverKind int

const (
	synth driverKind = iota // open loop: Bernoulli per node per simulated cycle
	moc                     // open loop: generated MOC trace replayed, then drained
	dnn                     // closed loop: collective DNN training step under faults
)

// simCase sizes one single-simulation workload. Arrays are [std, tiny].
type simCase struct {
	system   topology.System
	chiplets [2]int // per side
	nodes    [2]int // per chiplet side
	cycles   [2]int64
	warmup   [2]int64
	kind     driverKind
	rate     float64 // synth: offered flits/cycle/node
	// transpose swaps uniform-random destinations for the bit-transpose
	// permutation: fixed hot links, so the saturated state is the same
	// for every seed (uniform traffic past saturation collapses into a
	// congestion tree whose shape, and with it every statistic, swings
	// by a quarter from seed to seed).
	transpose bool
	parallel  bool   // step on the sharded engine
	grad      [2]int // dnn: gradient flits of the narrowest layer
}

// rep is the outcome of one repetition.
type rep struct {
	vals   map[string]float64
	digest digest
	// fails holds one line per violated gate; a non-empty list makes the
	// repetition a failed operation.
	fails     []string
	ops       int
	failedOps int
	// seqPointS is the summed Jobs=1 point time of a traced sweep
	// repetition; sweep.pool_utilisation is derived from it once the
	// untraced wall time is known.
	seqPointS float64
}

func newRep() *rep { return &rep{vals: make(map[string]float64)} }

// set stores a metric value. An undeclared name is a harness bug.
func (r *rep) set(name string, v float64) {
	if metricByName[name] == nil {
		panic("bench: undeclared metric " + name)
	}
	r.vals[name] = v
}

func (r *rep) fail(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// layerClock holds the interposed accumulators of one traced repetition
// and cuts the run phase into 1000-cycle chunks, each recorded as a span
// with one aggregated child per layer.
type layerClock struct {
	rec       *recorder
	driveName string // "traffic.drive", "trace.drive" or "collective.drive"
	workers   int

	drive    acc // driver callback
	sink     acc // whole Sink chain (integrity check + statistics)
	record   acc // stats.Collector.Record inside the sink
	deliver  acc // OnDeliver
	route    *timedRouting
	adapters []*timedAdapter

	chunkStart time.Time
	nextChunk  int64
	last       [5]int64 // child nanoseconds at the previous cut, by lane-1
}

const chunkCycles = 1000

func (c *layerClock) adapterNS() (ns, calls, accepts int64) {
	for _, a := range c.adapters {
		ns += a.tick.ns
		calls += a.tick.calls
		accepts += a.accepts
	}
	return
}

// children returns the cumulative child nanoseconds in lane order. Under
// sharded stepping adapters and routing tick on all workers at once, so
// their summed CPU time is divided by the worker count to estimate the
// wall time they cover.
func (c *layerClock) children() [5]int64 {
	ad, _, _ := c.adapterNS()
	par := int64(max(c.workers, 1))
	return [5]int64{
		c.drive.ns,
		c.record.ns,
		c.sink.ns - c.record.ns + c.deliver.ns,
		ad / par,
		c.route.ns.Load() / par,
	}
}

func total(ns [5]int64) (t int64) {
	for _, v := range ns {
		t += v
	}
	return t
}

var childNames = [5]string{"", "stats.record", "sink+on_deliver", "core.adapter_tick", "routing.route"}

// cut closes the current chunk at t.
func (c *layerClock) cut(t time.Time) {
	cur := c.children()
	var covered time.Duration
	for i := range cur {
		d := time.Duration(cur[i] - c.last[i])
		name := childNames[i]
		if i == 0 {
			name = c.driveName
		}
		if d > 0 {
			c.rec.addAggregate(name, "run.chunk", i+2, c.chunkStart, d)
		}
		covered += d
	}
	if self := t.Sub(c.chunkStart) - covered; self > 0 {
		c.rec.addAggregate("network.step_self", "run.chunk", 1, c.chunkStart, self)
	}
	c.rec.add("run.chunk", "run", 0, c.chunkStart, t)
	c.last = cur
	c.chunkStart = t
}

// simEnv is everything one repetition builds.
type simEnv struct {
	net  *network.Network
	topo *topology.Topo
	st   *stats.Collector
	dg   digest
	clk  *layerClock // nil when untraced
	chk  *fault.IntegrityChecker
	eng  *collective.Engine
	pat  *countingPattern

	driveCalls   int64
	recordCalls  int64
	deliverCalls int64
}

// runSim executes one repetition of a single-simulation workload: build
// from scratch, run, verify, and report the metrics it can see from
// outside the engine. workers > 1 steps on the sharded engine. rec is nil
// for an untraced repetition.
func runSim(name string, w *simCase, sc scale, seed int64, workers int, rec *recorder) *rep {
	r := newRep()
	r.ops = 1
	defer func() {
		if len(r.fails) > 0 {
			r.failedOps = 1
		}
	}()
	traced := rec != nil
	env := &simEnv{dg: newDigest()}
	if traced {
		// No chunk is cut before the run phase starts (the first Step
		// belongs to set-up).
		env.clk = &layerClock{rec: rec, workers: workers, nextChunk: math.MaxInt64}
	}

	// ---- set-up: everything before cycle 0, plus the first Step ----
	// The collector is paused for the set-up phase. Set-up allocates the
	// whole system in tens of milliseconds, and when the collection that
	// triggers starts halved or doubled the phase from one repetition to
	// the next; paused, setup_s reports set-up's own work and repeats to a
	// few percent. The collection it owes runs when the run phase starts
	// and is counted in wall_s.
	gcPercent := debug.SetGCPercent(-1)
	resumeGC := func() { debug.SetGCPercent(gcPercent) }
	defer resumeGC() // early returns; harmless after the explicit call below
	setupStart := time.Now()
	phase := func(metric string, spanName string, fn func()) {
		t := time.Now()
		fn()
		end := time.Now()
		r.set(metric, end.Sub(t).Seconds())
		rec.add(spanName, "setup", 0, t, end)
	}

	cfg := network.DefaultConfig()
	cfg.SimCycles = w.cycles[sc]
	cfg.WarmupCycles = w.warmup[sc]
	cfg.Seed = seed

	var tr *trace.Trace
	if w.kind == moc {
		phase("trace.generate_s", "trace.generate", func() {
			tr = trace.GenerateMOC(cfg.SimCycles, seed+43)
		})
		r.set("trace.records", float64(len(tr.Records)))
	}

	spec := topology.Spec{
		System:    w.system,
		ChipletsX: w.chiplets[sc], ChipletsY: w.chiplets[sc],
		NodesX: w.nodes[sc], NodesY: w.nodes[sc],
	}
	if w.kind == dnn {
		spec.Policy = core.NewFailoverPolicy(core.Balanced{})
	}
	var err error
	phase("topology.build_s", "topology.build", func() {
		env.net, env.topo, err = topology.Build(cfg, spec)
	})
	if err != nil {
		r.fail("topology.Build: %v", err)
		return r
	}
	net, topo := env.net, env.topo

	phase("routing.for_system_s", "routing.for_system", func() {
		var alg network.Routing
		alg, err = routing.ForSystem(topo, &net.Cfg)
		if traced && err == nil {
			env.clk.route = &timedRouting{inner: alg}
			alg = env.clk.route
		}
		net.Routing = alg
	})
	if err != nil {
		r.fail("routing.ForSystem: %v", err)
		return r
	}

	env.st = &stats.Collector{Warmup: cfg.WarmupCycles}
	net.Sink = env.sink(traced)
	phase("network.finalize_s", "network.finalize", func() {
		net.Finalize()
		net.PoolPackets = true
		net.LivelockHopBound = 6 * (topo.GX + topo.GY)
		net.SetShardCuts(topo.ShardCuts())
		if workers > 1 {
			net.SetWorkers(workers)
		}
	})
	if workers > 1 {
		// Stop the shard goroutines on every exit path.
		defer net.SetWorkers(0)
	}

	if w.kind == dnn {
		phase("fault.attach_s", "fault.attach", func() {
			fault.Attach(net, fault.Config{SerialBER: 1e-5})
			env.chk = fault.NewIntegrityChecker(net)
		})
	}
	if traced {
		// After fault.Attach, which needs the concrete adapter type; and
		// around the integrity checker, so the sink span covers it.
		env.clk.adapters = wrapAdapters(net)
		inner := net.Sink
		net.Sink = func(p *network.Packet) {
			t := time.Now()
			inner(p)
			env.clk.sink.ns += int64(time.Since(t))
		}
	}

	drive, next, err := env.driver(r, w, sc, tr, rec)
	if err != nil {
		r.fail("driver: %v", err)
		return r
	}

	// The first Step prepares the route LUT lazily; it belongs to set-up,
	// so that work moved out of the run phase into preparation shows.
	phase("routing.lut_prepare_s", "routing.lut_prepare", func() {
		drive(net.Now)
		net.Step()
	})
	setupEnd := time.Now()
	r.set("setup_s", setupEnd.Sub(setupStart).Seconds())
	rec.add("setup", "", 0, setupStart, setupEnd)
	resumeGC()

	// ---- run: first cycle to last delivered packet / end of window ----
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	startCycle := net.Now
	stepped0 := env.driveCalls
	runStart := time.Now()
	var kids0 int64 // child time the accumulators already hold from the first Step
	if traced {
		env.clk.chunkStart = runStart
		env.clk.nextChunk = chunkCycles
		env.clk.last = env.clk.children()
		kids0 = total(env.clk.last)
	}
	switch w.kind {
	case synth, moc:
		err = net.RunWith(cfg.SimCycles-net.Now, drive, next)
	case dnn:
		deadline := net.Now + cfg.SimCycles
		for err == nil && !env.eng.Done() {
			if net.Now >= deadline {
				err = fmt.Errorf("collective incomplete after %d cycles", cfg.SimCycles)
				break
			}
			err = net.RunWith(min(4096, deadline-net.Now), drive, next)
		}
	}
	injectEnd := time.Now()
	if traced {
		env.clk.cut(injectEnd)
	}
	if err != nil {
		r.fail("run: %v", err)
	}
	runCycles := net.Now - startCycle
	stepped := env.driveCalls - stepped0

	var drainS float64
	var drainCycles int64
	if w.kind != synth && err == nil {
		from := net.Now
		drained, derr := net.Drain()
		drainEnd := time.Now()
		drainS = drainEnd.Sub(injectEnd).Seconds()
		drainCycles = net.Now - from
		rec.add("drain", "run", 0, injectEnd, drainEnd)
		switch {
		case derr != nil:
			r.fail("drain: %v", derr)
		case !drained || net.InFlightFlits() != 0 || net.QueuedPackets() != 0:
			r.fail("drain left %d flits in flight, %d packets queued", net.InFlightFlits(), net.QueuedPackets())
		}
	}

	measureStart := time.Now()
	in := &experiments.Instance{Net: net, Topo: topo, Stats: env.st}
	res := in.Measure(w.system.String(), name, w.rate)
	runEnd := time.Now()
	rec.add("measure", "run", 0, measureStart, runEnd)
	rec.add("run", "", 0, runStart, runEnd)
	wall := runEnd.Sub(runStart).Seconds()
	runtime.ReadMemStats(&m1)

	// ---- gates ----
	if net.DeadlockAt >= 0 {
		r.fail("deadlock watchdog fired at cycle %d", net.DeadlockAt)
	}
	if cerr := net.CheckCredits(); cerr != nil {
		r.fail("credit conservation: %v", cerr)
	}
	if env.chk != nil {
		t := time.Now()
		cerr := env.chk.Check(net)
		check := time.Since(t).Seconds()
		if traced {
			check += float64(env.clk.sink.ns-env.clk.record.ns) / 1e9
		}
		r.set("fault.integrity_check_s", check)
		if cerr != nil {
			r.fail("integrity: %v", cerr)
		}
	}
	if res.Packets == 0 || math.IsNaN(res.MeanLatency) {
		r.fail("no packets measured")
	}

	// ---- end-to-end ----
	r.set("wall_s", wall)
	r.set("sim_p50_latency_cycles", float64(env.st.Percentile(0.5)))
	r.set("sim_accepted_flits_per_cycle_node", res.Throughput)
	r.set("sim_energy_pj_per_packet", res.EnergyPJ)

	// ---- per layer ----
	var hops uint64
	for _, g := range net.GrantsByKind {
		hops += g
	}
	r.set("topology.nodes", float64(topo.N))
	r.set("topology.links", float64(len(net.Links)))
	r.set("topology.adapters", float64(len(topo.Adapters)))
	r.set("network.sim_cycles_per_s", float64(runCycles+drainCycles)/wall)
	r.set("network.flit_hops_per_s", float64(hops)/wall)
	r.set("network.ns_per_flit_hop", wall*1e9/float64(max(hops, 1)))
	r.set("network.cycles_stepped", float64(stepped))
	r.set("network.cycles_skipped", float64(runCycles-stepped))
	r.set("network.flit_hops_onchip", float64(net.GrantsByKind[network.KindOnChip]))
	r.set("network.flit_hops_parallel", float64(net.GrantsByKind[network.KindParallel]))
	r.set("network.flit_hops_serial", float64(net.GrantsByKind[network.KindSerial]))
	r.set("network.flit_hops_heterophy", float64(net.GrantsByKind[network.KindHeteroPHY]))
	r.set("network.flit_hops_local", float64(net.GrantsByKind[network.KindLocal]))
	r.set("network.va_failures", float64(net.VAFailures))
	// Packet-hops: flit-hops over the mean delivered packet length.
	packetHops := 1.0
	if env.st.FlitsDelivered() > 0 {
		packetHops = max(1, float64(hops)*float64(env.st.Count())/float64(env.st.FlitsDelivered()))
	}
	r.set("network.va_failures_per_packet_hop", float64(net.VAFailures)/packetHops)
	kcycles := float64(max(stepped, 1)) / 1000
	r.set("network.allocs_per_kcycle", float64(m1.Mallocs-m0.Mallocs)/kcycles)
	r.set("network.bytes_per_kcycle", float64(m1.TotalAlloc-m0.TotalAlloc)/kcycles)
	r.set("network.drain_s", drainS)
	r.set("network.drain_cycles", float64(drainCycles))
	r.set("network.queued_packets_end", float64(net.QueuedPackets()))
	r.set("network.par_workers", float64(max(workers, 1)))

	var par, ser uint64
	maxQ, maxROB := 0, 0
	var trips uint64
	for _, ad := range topo.Adapters {
		par += ad.ParallelFlits()
		ser += ad.SerialFlits()
		maxQ = max(maxQ, ad.MaxQueue())
		maxROB = max(maxROB, ad.MaxROBOccupancy())
		if fp, ok := ad.Policy().(*core.FailoverPolicy); ok {
			trips += fp.Trips()
		}
	}
	r.set("core.flits_parallel_phy", float64(par))
	r.set("core.flits_serial_phy", float64(ser))
	r.set("core.serial_share", float64(ser)/float64(max(par+ser, 1)))
	r.set("core.max_tx_queue", float64(maxQ))
	r.set("core.max_rob_occupancy", float64(maxROB))
	r.set("core.failover_trips", float64(trips))

	if traced {
		unwrapAdapters(net)
	}
	sum := fault.Summarize(net)
	r.set("core.rescued_flits", float64(sum.Rescued))
	r.set("fault.sites", float64(sum.Sites))
	r.set("fault.transmits", float64(sum.Transmits))
	r.set("fault.retransmits", float64(sum.Retransmits))
	r.set("fault.retry_rate", sum.RetryRate())
	r.set("fault.corrupted", float64(sum.Corrupted))
	r.set("fault.timeouts", float64(sum.Timeouts))

	r.set("stats.record_calls", float64(env.recordCalls))
	r.set("stats.measure_s", runEnd.Sub(measureStart).Seconds())
	r.set("stats.mean_latency_cycles", res.MeanLatency)
	r.set("stats.p99_latency_cycles", float64(res.P99Latency))
	r.set("stats.packets_measured", float64(res.Packets))

	switch w.kind {
	case synth:
		r.set("traffic.drive_calls", float64(env.driveCalls))
		r.set("traffic.packets_offered", float64(env.pat.n))
	case moc:
		r.set("trace.drive_calls", float64(env.driveCalls))
		// Injection start (cycle 0) to drained.
		r.set("trace.completion_cycles", float64(net.Now))
	case dnn:
		rp := env.eng.Report()
		r.set("collective.msgs", float64(rp.Msgs))
		r.set("collective.drive_calls", float64(env.driveCalls))
		r.set("collective.on_deliver_calls", float64(env.deliverCalls))
		r.set("collective.elapsed_cycles", float64(rp.Elapsed))
		r.set("collective.comm_cycles", float64(rp.CommCycles))
		r.set("collective.stall_cycles", float64(rp.StallCycles))
	}

	if traced {
		c := env.clk
		adNS, adCalls, adAccepts := c.adapterNS()
		r.set("core.adapter_tick_s", float64(adNS)/1e9)
		r.set("core.adapter_tick_calls", float64(adCalls))
		r.set("core.adapter_accept_calls", float64(adAccepts))
		r.set("routing.route_calls", float64(c.route.calls.Load()))
		r.set("routing.route_s", float64(c.route.ns.Load())/1e9)
		r.set("routing.route_calls_per_packet_hop", float64(c.route.calls.Load())/packetHops)
		r.set("stats.record_s", c.record.seconds())
		switch w.kind {
		case synth:
			r.set("traffic.drive_s", c.drive.seconds())
			r.set("traffic.ns_per_node_cycle", float64(c.drive.ns)/float64(max(c.drive.calls, 1))/float64(topo.N))
		case moc:
			r.set("trace.drive_s", c.drive.seconds())
		case dnn:
			r.set("collective.drive_s", c.drive.seconds())
			r.set("collective.on_deliver_s", c.deliver.seconds())
		}
		// Self time of the engine over the run span: what is left after
		// every interposed child. Drain and Measure are not children of
		// the stepping loop, so they come off too.
		self := injectEnd.Sub(runStart).Seconds() + drainS - float64(total(c.children())-kids0)/1e9
		r.set("network.step_self_s", max(self, 0))
	}

	// Fold the engine totals into the digest so a run that delivers the
	// same packets through different events still differs.
	env.dg.put(uint64(net.PacketsInjected()))
	env.dg.put(uint64(net.PacketsDelivered()))
	env.dg.put(net.VAFailures)
	for _, g := range net.GrantsByKind {
		env.dg.put(g)
	}
	env.dg.put(uint64(net.Now))
	r.digest = env.dg
	return r
}

// sink returns the statistics sink: arrival digest plus the collector
// record the experiment runners use. The traced variant times Record.
func (env *simEnv) sink(traced bool) func(*network.Packet) {
	record := func(p *network.Packet) {
		env.recordCalls++
		env.st.Record(stats.Measured{
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
	if !traced {
		return func(p *network.Packet) {
			env.dg.putPacket(p)
			record(p)
		}
	}
	return func(p *network.Packet) {
		env.dg.putPacket(p)
		t := time.Now()
		record(p)
		env.clk.record.ns += int64(time.Since(t))
	}
}

// driver builds the workload's traffic source and returns its drive and
// next-injection callbacks, wrapped to count calls (and, traced, to time
// them and cut chunk spans). The simulator sees only generated inputs: a
// pattern, a trace or a program.
func (env *simEnv) driver(r *rep, w *simCase, sc scale, tr *trace.Trace, rec *recorder) (drive func(int64), next func(int64) int64, err error) {
	net := env.net
	var inner func(int64)
	switch w.kind {
	case synth:
		env.pat = &countingPattern{Pattern: traffic.Uniform{}}
		if w.transpose {
			env.pat.Pattern = traffic.BitTranspose()
		}
		gen := traffic.NewGenerator(net, env.pat, w.rate, net.Cfg.Seed+17)
		inner = gen.Drive // next stays nil: a Bernoulli source needs every cycle
		if env.clk != nil {
			env.clk.driveName = "traffic.drive"
		}
	case moc:
		// Spread the ranks evenly over the node range.
		m := make([]network.NodeID, tr.Ranks)
		for i := range m {
			m[i] = network.NodeID(i * len(net.Nodes) / len(m))
		}
		replay, err := trace.NewReplayer(tr, net, m, 1)
		if err != nil {
			return nil, nil, err
		}
		replay.MeasureFrom = net.Cfg.WarmupCycles
		inner, next = replay.Drive, replay.NextInjection
		if env.clk != nil {
			env.clk.driveName = "trace.drive"
		}
	case dnn:
		t := time.Now()
		size := w.grad[sc]
		prog := collective.DNNTraining(env.topo.ChipletLeaders(), []collective.Layer{
			{Name: "embed", Compute: 8 * int64(size), GradFlits: 2 * size},
			{Name: "mlp", Compute: 16 * int64(size), GradFlits: 4 * size},
			{Name: "head", Compute: 4 * int64(size), GradFlits: size},
		}, 16)
		env.eng, err = collective.NewEngine(net, prog)
		end := time.Now()
		r.set("collective.build_program_s", end.Sub(t).Seconds())
		rec.add("collective.build_program", "setup", 0, t, end)
		if err != nil {
			return nil, nil, err
		}
		inner, next = env.eng.Drive, env.eng.NextInjection
		observe := net.OnDeliver
		if env.clk != nil {
			env.clk.driveName = "collective.drive"
			net.OnDeliver = func(p *network.Packet) {
				t := time.Now()
				observe(p)
				env.clk.deliver.ns += int64(time.Since(t))
				env.deliverCalls++
			}
		} else {
			net.OnDeliver = func(p *network.Packet) {
				env.deliverCalls++
				observe(p)
			}
		}
	}
	if c := env.clk; c != nil {
		return func(now int64) {
			if now >= c.nextChunk {
				c.cut(time.Now())
				c.nextChunk = now - now%chunkCycles + chunkCycles
			}
			t := time.Now()
			inner(now)
			c.drive.ns += int64(time.Since(t))
			c.drive.calls++
			env.driveCalls++
		}, next, nil
	}
	return func(now int64) {
		env.driveCalls++
		inner(now)
	}, next, nil
}
