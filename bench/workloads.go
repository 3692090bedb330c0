package main

import "tahoedyn/internal/core"

// metricDef is one metric of the benchmark's contract. BENCHMARK.json
// carries the same list; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the metrics a user of the simulator sees, reported on
// every workload from the untraced runs. All times are host time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"steady_events_per_s", "1/s", "higher", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"output_mb", "MB", "lower", 0.15},
}

// perLayer are the traced run's metrics, one layer each.
var perLayer = []metricDef{
	// Phase spans around the public calls, summed over the traced
	// repetition. A phase a workload does not have reads 0.
	{"scenario.parse_s", "s", "lower", 0},
	{"topology.compile_s", "s", "lower", 0},
	{"core.build_s", "s", "lower", 0},
	{"core.wire_s", "s", "lower", 0},
	{"core.warmup_s", "s", "lower", 0},
	{"core.steady_s", "s", "lower", 0},
	{"core.finish_s", "s", "lower", 0},
	{"analysis.phase_s", "s", "lower", 0},
	{"analysis.epochs_s", "s", "lower", 0},
	{"analysis.ackcomp_s", "s", "lower", 0},
	{"tstore.open_s", "s", "lower", 0},
	{"tstore.check_s", "s", "lower", 0},
	{"tstore.query_s", "s", "lower", 0},
	{"tstore.store_mb", "MB", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	// Set-up attribution.
	{"core.wire_allocs_per_conn", "count", "lower", 0},
	{"core.wire_bytes_per_conn", "B", "lower", 0},
	{"core.wire_allocs_per_switch", "count", "lower", 0},
	{"topology.compile_us_per_switch", "us", "lower", 0},
	{"topology.route_bytes_per_switch", "B", "lower", 0},
	{"topology.apply_link_change_us", "us", "lower", 0},
	{"topology.partition_s", "s", "lower", 0},
	{"scenario.parse_mb_per_s", "MB/s", "higher", 0},
	{"tcp.bytes_per_conn", "B", "lower", 0},
	{"trace.series_bytes_per_sim_s", "B/sim_s", "lower", 0},
	// Isolated drivers: ns per call with the other layers stubbed.
	{"sim.wheel.schedule_fire_ns.shallow", "ns", "lower", 0},
	{"sim.wheel.schedule_fire_ns.deep", "ns", "lower", 0},
	{"sim.wheel.timer_rearm_ns", "ns", "lower", 0},
	{"sim.wheel.cancel_ns", "ns", "lower", 0},
	{"sim.heap.schedule_fire_ns.shallow", "ns", "lower", 0},
	{"sim.heap.schedule_fire_ns.deep", "ns", "lower", 0},
	{"sim.heap.timer_rearm_ns", "ns", "lower", 0},
	{"sim.heap.cancel_ns", "ns", "lower", 0},
	{"packet.pool_getput_ns", "ns", "lower", 0},
	{"link.port_hop_ns.droptail", "ns", "lower", 0},
	{"link.port_hop_ns.red", "ns", "lower", 0},
	{"link.port_hop_ns.behavior", "ns", "lower", 0},
	{"link.port_drop_ns", "ns", "lower", 0},
	{"node.switch_forward_ns.dense", "ns", "lower", 0},
	{"node.switch_forward_ns.runs", "ns", "lower", 0},
	{"node.host_deliver_ns", "ns", "lower", 0},
	{"tcp.sender_ack_ns", "ns", "lower", 0},
	{"tcp.receiver_data_ns", "ns", "lower", 0},
	{"obs.emit_off_ns", "ns", "lower", 0},
	{"obs.emit_on_ns", "ns", "lower", 0},
	{"tstore.append_ns_per_event", "ns", "lower", 0},
	{"tstore.bytes_per_event", "B", "lower", 0},
	{"tstore.scan_events_per_s", "1/s", "higher", 0},
	// Steady-state shares of the CPU profile; they sum to 100.
	{"sim.steady_self_pct", "%", "lower", 0},
	{"link.steady_self_pct", "%", "lower", 0},
	{"tcp.steady_self_pct", "%", "lower", 0},
	{"node.steady_self_pct", "%", "lower", 0},
	{"packet.steady_self_pct", "%", "lower", 0},
	{"trace.steady_self_pct", "%", "lower", 0},
	{"obs.steady_self_pct", "%", "lower", 0},
	{"tstore.steady_self_pct", "%", "lower", 0},
	{"shard.steady_self_pct", "%", "lower", 0},
	{"core.steady_self_pct", "%", "lower", 0},
	{"runtime.gc_self_pct", "%", "lower", 0},
	{"runtime.malloc_self_pct", "%", "lower", 0},
	{"other.steady_self_pct", "%", "lower", 0},
	{"core.steady_ns_per_event", "ns", "lower", 0},
	{"core.budget_coverage_pct", "%", "higher", 0},
	// Comparisons against one alternative configuration, and process
	// figures of the traced repetition.
	{"shard.speedup_x", "x", "higher", 0},
	{"shard.digest_equal", "count", "higher", 0},
	{"obs.tap_overhead_pct", "%", "lower", 0},
	{"sched.heap_vs_wheel_x.shallow", "x", "higher", 0},
	{"sched.heap_vs_wheel_x.deep", "x", "higher", 0},
	{"core.steady_allocs_per_kevent", "count", "lower", 0},
	{"packet.pool_miss_per_kevent", "count", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
}

// workload is one named input set. gen turns (seed, scale) into the
// runs of one repetition; scale 1 is the benchmark size, the smoke run
// uses 1/20.
type workload struct {
	name string
	why  string
	// threads is the number of goroutines a run occupies (its shard
	// count); the harness refuses a workload that needs more than nproc.
	threads int
	gen     func(seed int64, scale float64) []runSpec
	// budget names the isolated drivers the steady state is made of.
	budget budget
	// variant, when set, is the one alternative configuration the traced
	// run compares against the default, and the ratio it yields.
	variant *variant
	// ungated, when set, says why BENCHMARK.json does not list the
	// workload: the harness runs and reports it like the others, but the
	// driver neither runs it nor holds a later PR to its numbers.
	ungated string
}

// shareMetric names the per-layer metric of one profile bucket.
func shareMetric(bucket string) string {
	switch bucket {
	case "runtime.gc":
		return "runtime.gc_self_pct"
	case "runtime.malloc":
		return "runtime.malloc_self_pct"
	}
	return bucket + ".steady_self_pct"
}

// budget names the isolated drivers whose cost a workload's steady
// state is expected to be made of.
type budget struct {
	port, forward, sched string
	// tapped adds the obs emit and store append cost of every traced
	// event.
	tapped bool
}

var paperBudget = budget{port: "link.port_hop_ns.droptail", forward: "node.switch_forward_ns.dense", sched: "sim.wheel.schedule_fire_ns.shallow"}

func slowerBy(def, alt float64) float64 { return alt / def }

// workloads are the benchmark's six input sets, four of them gated by
// BENCHMARK.json. Sizes come from a probe on a 2-core box: one
// repetition takes 0.5–3.5 s.
var workloads = []*workload{
	{
		name:    "paper-twoway",
		why:     "the paper's dumbbell, 4 long runs: steady state of the hot path (engine shallow, drop-tail port, Tahoe, dense switch, series) is everything",
		threads: 1,
		gen:     genPaperTwoWay,
		budget:  paperBudget,
		variant: &variant{metric: "sched.heap_vs_wheel_x.shallow", mutate: heapSched, ratio: slowerBy},
	},
	{
		name:    "flows-100k",
		why:     "1e5 one-hop flows on chain:64, measurement off: 1e5 pending RTO timers, per-conn wiring allocations and state dominate",
		threads: 1,
		gen:     genFlows100k,
		budget:  budget{port: "link.port_hop_ns.droptail", forward: "node.switch_forward_ns.dense", sched: "sim.wheel.schedule_fire_ns.deep"},
		variant: &variant{metric: "sched.heap_vs_wheel_x.deep", mutate: heapSched, ratio: slowerBy},
		ungated: "unresolved on a shared host: 240 ns per event of DRAM latency over a 226 MB working set, and identical runs spread 22-28 % on steady_events_per_s and wall_s",
	},
	{
		name:    "mesh-ba2048",
		why:     "BarabasiAlbert(2048,2) with 1000 multi-hop flows and 4 link events: set-up-dominated, route compile and interval-run forwarding do the work",
		threads: 1,
		gen:     genMeshBA,
		budget:  budget{port: "link.port_hop_ns.droptail", forward: "node.switch_forward_ns.runs", sched: "sim.wheel.schedule_fire_ns.shallow"},
	},
	{
		name:    "chain1k-shards2",
		why:     "chain:1024 with 1e4 neighbour-local conns on 2 shards: the only workload where internal/shard runs, every other shows the serial-path tax",
		threads: 2,
		gen:     genChainShards,
		budget:  budget{port: "link.port_hop_ns.droptail", forward: "node.switch_forward_ns.runs", sched: "sim.wheel.schedule_fire_ns.deep"},
		variant: &variant{
			metric: "shard.speedup_x",
			mutate: func(cfg *core.Config, _ *runSpec) { cfg.Shards = 1 },
			ratio:  slowerBy,
		},
		ungated: "unresolved on a 2-vCPU shared guest: two region goroutines need both processors all the time, and back-to-back sets of identical runs drifted 24 % on steady_events_per_s and 31 % on wall_s",
	},
	{
		name:    "traced-red",
		why:     "parking-lot:3 with RED queues, loss and jitter, invariants on, full trace into in-memory TOBC stores then queried: tap and store path",
		threads: 1,
		gen:     genTracedRED,
		budget:  budget{port: "link.port_hop_ns.red", forward: "node.switch_forward_ns.dense", sched: "sim.wheel.schedule_fire_ns.shallow", tapped: true},
		variant: &variant{
			metric: "obs.tap_overhead_pct",
			mutate: func(_ *core.Config, spec *runSpec) { spec.store = false },
			ratio:  func(def, alt float64) float64 { return 100 * (def - alt) / alt },
		},
	},
	{
		name:    "sweep-grid",
		why:     "tahoe-sweep's 4x4 grid x 8 seeds = 128 short runs on one arena, each analysed: many small builds and finishes, arena reuse and analysis carry the cost",
		threads: 1,
		gen:     genSweepGrid,
		budget:  paperBudget,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
