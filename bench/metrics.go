package main

// metric declares one benchmark metric. Name, Unit, Better and (for
// end-to-end metrics) Bound are what BENCHMARK.json carries (the test fails
// when the two differ); the rest is the harness's own knowledge about the
// value.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression (0 for per-layer
	// metrics, which carry none).
	Bound float64
	// Exact marks simulated statistics and event counts: the simulator is
	// deterministic for a fixed seed, so they must repeat bit-for-bit
	// across repetitions, across the traced and untraced pass, and across
	// two builds that claim to change only host speed.
	Exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the simulator sees, on every workload.
// Bounds come from the cross-seed spread measured on the 2-core reference
// host (README, "Noise"). Host metrics sit at the contract's ceiling: the
// host drifts between speed regimes a fifth apart that last longer than a
// run. Simulated metrics get three times the widest quartile distance any
// workload showed.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "sim_p50_latency_cycles", Unit: "cycles", Better: lower, Bound: 0.15, Exact: true},
	{Name: "sim_accepted_flits_per_cycle_node", Unit: "flits/cycle", Better: higher, Bound: 0.20, Exact: true},
	{Name: "sim_energy_pj_per_packet", Unit: "pJ", Better: lower, Bound: 0.10, Exact: true},
}

// perLayer lists the single-layer metrics, layer = Go package. "_s" values
// are host seconds summed over one repetition; counts are exact.
var perLayer = []metric{
	{Name: "topology.build_s", Unit: "s", Better: lower},
	{Name: "topology.nodes", Unit: "count", Better: lower, Exact: true},
	{Name: "topology.links", Unit: "count", Better: lower, Exact: true},
	{Name: "topology.adapters", Unit: "count", Better: lower, Exact: true},

	{Name: "routing.for_system_s", Unit: "s", Better: lower},
	{Name: "routing.lut_prepare_s", Unit: "s", Better: lower},
	{Name: "routing.route_calls", Unit: "count", Better: lower, Exact: true},
	{Name: "routing.route_s", Unit: "s", Better: lower},
	{Name: "routing.route_calls_per_packet_hop", Unit: "ratio", Better: lower, Exact: true},

	{Name: "network.finalize_s", Unit: "s", Better: lower},
	{Name: "network.step_self_s", Unit: "s", Better: lower},
	{Name: "network.ns_per_flit_hop", Unit: "ns", Better: lower},
	{Name: "network.sim_cycles_per_s", Unit: "1/s", Better: higher},
	{Name: "network.flit_hops_per_s", Unit: "1/s", Better: higher},
	{Name: "network.cycles_stepped", Unit: "count", Better: lower, Exact: true},
	{Name: "network.cycles_skipped", Unit: "count", Better: higher, Exact: true},
	{Name: "network.flit_hops_onchip", Unit: "count", Better: lower, Exact: true},
	{Name: "network.flit_hops_parallel", Unit: "count", Better: lower, Exact: true},
	{Name: "network.flit_hops_serial", Unit: "count", Better: lower, Exact: true},
	{Name: "network.flit_hops_heterophy", Unit: "count", Better: lower, Exact: true},
	{Name: "network.flit_hops_local", Unit: "count", Better: lower, Exact: true},
	{Name: "network.va_failures", Unit: "count", Better: lower, Exact: true},
	{Name: "network.va_failures_per_packet_hop", Unit: "ratio", Better: lower, Exact: true},
	{Name: "network.allocs_per_kcycle", Unit: "count", Better: lower},
	{Name: "network.bytes_per_kcycle", Unit: "B", Better: lower},
	{Name: "network.drain_s", Unit: "s", Better: lower},
	{Name: "network.drain_cycles", Unit: "cycles", Better: lower, Exact: true},
	{Name: "network.queued_packets_end", Unit: "count", Better: lower, Exact: true},
	{Name: "network.par_workers", Unit: "count", Better: higher, Exact: true},
	{Name: "network.par_speedup", Unit: "ratio", Better: higher},

	{Name: "core.adapter_tick_s", Unit: "s", Better: lower},
	{Name: "core.adapter_tick_calls", Unit: "count", Better: lower, Exact: true},
	{Name: "core.adapter_accept_calls", Unit: "count", Better: lower, Exact: true},
	{Name: "core.flits_parallel_phy", Unit: "count", Better: higher, Exact: true},
	{Name: "core.flits_serial_phy", Unit: "count", Better: lower, Exact: true},
	{Name: "core.serial_share", Unit: "ratio", Better: lower, Exact: true},
	{Name: "core.max_tx_queue", Unit: "flits", Better: lower, Exact: true},
	{Name: "core.max_rob_occupancy", Unit: "flits", Better: lower, Exact: true},
	{Name: "core.failover_trips", Unit: "count", Better: lower, Exact: true},
	{Name: "core.rescued_flits", Unit: "count", Better: lower, Exact: true},

	{Name: "traffic.drive_s", Unit: "s", Better: lower},
	{Name: "traffic.drive_calls", Unit: "count", Better: lower, Exact: true},
	{Name: "traffic.packets_offered", Unit: "count", Better: higher, Exact: true},
	{Name: "traffic.ns_per_node_cycle", Unit: "ns", Better: lower},

	{Name: "trace.generate_s", Unit: "s", Better: lower},
	{Name: "trace.records", Unit: "count", Better: higher, Exact: true},
	{Name: "trace.drive_s", Unit: "s", Better: lower},
	{Name: "trace.drive_calls", Unit: "count", Better: lower, Exact: true},
	{Name: "trace.completion_cycles", Unit: "cycles", Better: lower, Exact: true},

	{Name: "collective.build_program_s", Unit: "s", Better: lower},
	{Name: "collective.msgs", Unit: "count", Better: higher, Exact: true},
	{Name: "collective.drive_s", Unit: "s", Better: lower},
	{Name: "collective.drive_calls", Unit: "count", Better: lower, Exact: true},
	{Name: "collective.on_deliver_s", Unit: "s", Better: lower},
	{Name: "collective.on_deliver_calls", Unit: "count", Better: lower, Exact: true},
	{Name: "collective.elapsed_cycles", Unit: "cycles", Better: lower, Exact: true},
	{Name: "collective.comm_cycles", Unit: "cycles", Better: lower, Exact: true},
	{Name: "collective.stall_cycles", Unit: "cycles", Better: lower, Exact: true},

	{Name: "fault.attach_s", Unit: "s", Better: lower},
	{Name: "fault.sites", Unit: "count", Better: lower, Exact: true},
	{Name: "fault.transmits", Unit: "count", Better: lower, Exact: true},
	{Name: "fault.retransmits", Unit: "count", Better: lower, Exact: true},
	{Name: "fault.retry_rate", Unit: "ratio", Better: lower, Exact: true},
	{Name: "fault.corrupted", Unit: "count", Better: lower, Exact: true},
	{Name: "fault.timeouts", Unit: "count", Better: lower, Exact: true},
	{Name: "fault.integrity_check_s", Unit: "s", Better: lower},

	{Name: "stats.record_s", Unit: "s", Better: lower},
	{Name: "stats.record_calls", Unit: "count", Better: higher, Exact: true},
	{Name: "stats.measure_s", Unit: "s", Better: lower},
	{Name: "stats.mean_latency_cycles", Unit: "cycles", Better: lower, Exact: true},
	{Name: "stats.p99_latency_cycles", Unit: "cycles", Better: lower, Exact: true},
	{Name: "stats.packets_measured", Unit: "count", Better: higher, Exact: true},

	{Name: "sweep.points", Unit: "count", Better: higher, Exact: true},
	{Name: "sweep.points_per_s", Unit: "1/s", Better: higher},
	{Name: "sweep.point_p50_s", Unit: "s", Better: lower},
	{Name: "sweep.point_max_s", Unit: "s", Better: lower},
	{Name: "sweep.pool_utilisation", Unit: "ratio", Better: higher},

	{Name: "experiments.fig11_s", Unit: "s", Better: lower},
	{Name: "experiments.fig12_s", Unit: "s", Better: lower},
	{Name: "experiments.fig13_s", Unit: "s", Better: lower},
	{Name: "experiments.fault_s", Unit: "s", Better: lower},
	{Name: "experiments.collective_s", Unit: "s", Better: lower},
	{Name: "experiments.manifest_write_s", Unit: "s", Better: lower},
	{Name: "experiments.manifest_bytes", Unit: "B", Better: lower},

	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: lower},
}

// metricByName indexes both lists.
var metricByName = func() map[string]*metric {
	m := make(map[string]*metric)
	for _, list := range [][]metric{endToEnd, perLayer} {
		for i := range list {
			m[list[i].Name] = &list[i]
		}
	}
	return m
}()

// runSeconds is how long the driver asks one run to measure
// (BENCHMARK.json run_seconds) and the default of -seconds.
const runSeconds = 10

// median returns the middle value of vs (NaN when empty).
func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}
