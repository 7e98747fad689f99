package main

// metricDef names one metric the benchmark prints. Which end-to-end
// metric each per-layer metric should move, and on which workload, is
// tabled in README.md.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// endToEnd is what a user of the repository waits for or pays: host
// throughput, set-up time, allocation and memory. Printed with --trace 0.
var endToEnd = []metricDef{
	{"delivered_pps", "pkt/s", "higher"},
	{"setup_s", "s", "lower"},
	{"allocs_per_pkt", "allocs/pkt", "lower"},
	{"alloc_bytes_per_pkt", "B/pkt", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// rungs are the ladder rungs: each times calls into one layer's exported
// functions over the workload's own generated stream.
var rungs = []string{
	"trafficgen.next", "packet.parse", "packet.serialize", "rmt.phv",
	"rmt.pipeline", "core.inject", "core.burst", "nf.chain", "sim.engine",
	"sim.link", "sim.server", "wire.send", "wire.recv",
}

// cpuRows are the CPU-share rows of the traced run's profile: one per
// package of the module a sample can fold onto, plus GC and the rest of
// the runtime.
var cpuRows = []string{
	"sim", "rmt", "core", "packet", "trafficgen", "nf", "maglev", "wire",
	"live", "stats", "other", "bench", "runtime_gc", "runtime_other",
}

// perLayerCounts are read from the traced run's Report, its
// Observe.Metrics snapshot, the runtime, and the timing delegates.
var perLayerCounts = []metricDef{
	{"sim.goodput_gbps", "Gbps", "higher"},
	{"sim.latency_avg_us", "us", "lower"},
	{"sim.events_per_pkt", "1/pkt", "lower"},
	{"sim.barrier_stall_frac", "fraction", "lower"},
	{"sim.cross_msgs_per_pkt", "1/pkt", "lower"},
	{"sim.drop_frac", "fraction", "lower"},
	{"core.split_frac", "fraction", "higher"},
	{"core.merge_ratio", "fraction", "higher"},
	{"core.premature", "count", "lower"},
	{"live.rx_burst_mean", "frames", "higher"},
	{"live.tx_batch_mean", "frames", "higher"},
	{"live.errors", "count", "lower"},
	{"live.lost_socket", "count", "lower"},
	{"live.lost_evicted", "count", "lower"},
	{"wire.frames_per_syscall", "frames", "higher"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trafficgen.busy_frac", "fraction", "lower"},
	{"nf.busy_frac", "fraction", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// perLayer lists every per-layer metric, in print order.
func perLayer() []metricDef {
	var out []metricDef
	for _, r := range rungs {
		out = append(out,
			metricDef{r + "_ns", "ns", "lower"},
			metricDef{r + "_p99_ns", "ns", "lower"},
			metricDef{r + "_allocs", "allocs/pkt", "lower"},
			metricDef{r + "_bytes", "B/pkt", "lower"},
		)
	}
	out = append(out, perLayerCounts...)
	for _, row := range cpuRows {
		out = append(out, metricDef{"cpu." + row, "fraction", "lower"})
	}
	return out
}
