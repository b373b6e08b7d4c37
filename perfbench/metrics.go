package main

// The benchmark's metric vocabulary. BENCHMARK.json at the repository
// root lists the same names; TestMetricNames keeps the two in step.

// metricDecl declares one reported metric.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd are measured through the dts binary with telemetry off
// (-trace 0). failed_frac is not among them: it is 0 on a correct run,
// so it travels as the result's attempted/failed counts instead.
var endToEnd = []metricDecl{
	{"runs_per_s", "runs/s", "higher", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s_per_krun", "cpu_s/krun", "lower", 0.24},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer are measured by the traced in-process run (-trace 1). README.md
// maps each to the layer call it times and the end-to-end metric it
// should move.
var perLayer = []metricDecl{
	{Name: "core.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_us.p50", Unit: "us", Better: "lower"},
	{Name: "core.run_us.p99", Unit: "us", Better: "lower"},
	{Name: "core.pool_busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.supervise_us_per_run", Unit: "us", Better: "lower"},
	{Name: "core.supervise_overhead", Unit: "ratio", Better: "lower"},
	{Name: "ntsim.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "ntsim.fork_us", Unit: "us", Better: "lower"},
	{Name: "ntsim.quanta_per_run", Unit: "count", Better: "lower"},
	{Name: "ntsim.ns_per_quantum", Unit: "ns", Better: "lower"},
	{Name: "win32.syscalls_per_run", Unit: "count", Better: "lower"},
	{Name: "inject.activated_frac", Unit: "ratio", Better: "higher"},
	{Name: "cluster.run_us.p50", Unit: "us", Better: "lower"},
	{Name: "cluster.run_us.p99", Unit: "us", Better: "lower"},
	{Name: "cluster.cost_vs_single", Unit: "ratio", Better: "lower"},
	{Name: "journal.write_us", Unit: "us", Better: "lower"},
	{Name: "journal.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.bytes_per_run", Unit: "B", Better: "lower"},
	{Name: "journal.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.decode_us_per_line", Unit: "us", Better: "lower"},
	{Name: "replay.load_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.resolve_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.elision_rate", Unit: "ratio", Better: "higher"},
	{Name: "shard.spawn_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.chunk_rtt_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "shard.chunk_rtt_ms.p99", Unit: "ms", Better: "lower"},
	{Name: "shard.wire_bytes_per_run", Unit: "B", Better: "lower"},
	{Name: "shard.speculated_frac", Unit: "ratio", Better: "lower"},
	{Name: "experiments.save_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.overhead", Unit: "ratio", Better: "lower"},
	{Name: "go.alloc_kb_per_run", Unit: "kB", Better: "lower"},
	{Name: "go.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects reported values, refusing undeclared names.
type metricSet map[string]metric

func (m metricSet) put(decls []metricDecl, name string, v float64) {
	for _, d := range decls {
		if d.Name == name {
			m[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}
