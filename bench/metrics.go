package main

import "fmt"

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds; bench_test.go keeps the two in
// step.

// metricDef declares one metric. bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// Every workload reports every end-to-end metric, so each is defined for
// every workload:
//
//	op       console-*: one HTTP request; kernel-*: one fired event;
//	         sim-sweep: one scenario run
//	latency  what a caller waits for: one request; one lockstep window
//	         (kernel-heartbeat) or one chunk of fired events (kernel-churn);
//	         one seed's five scenario runs (sim-sweep)
//
// Timing bounds are the contract's ceiling, a quarter: on the 2-core box the
// benchmark was written on, wall-clock figures of identical runs drift by
// 4–13 % (quartile distance ÷ median over ten seeds) depending on the
// quarter-hour. Allocation and live heap repeat to 0.03 %, so they keep the
// issue's 3 % and 5 %. README.md has the numbers.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

func layerDefs() []metricDef {
	var out []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, better: better})
		}
	}
	// p50 metrics with a p95 twin.
	twins := func(unit string, stems ...string) {
		for _, s := range stems {
			add("lower", unit, s+"_p50", s+"_p95")
		}
	}

	// client: the generator's own view (untraced phase unless noted).
	add("higher", "count", "client.requests")
	add("higher", "1/s", "client.req_per_s")
	add("lower", "ms", "client.read_p50_ms", "client.read_p95_ms",
		"client.write_p50_ms", "client.write_p95_ms", "client.p99_ms", "client.login_p50_ms", "client.launch_p50_ms",
		"client.instances_p50_ms", "client.usage_p50_ms", "client.datasets_p50_ms",
		"client.status_p50_ms", "client.terminate_p50_ms")
	twins("us", "client.unattributed_us")

	// trace: how much to trust the per-layer numbers.
	add("higher", "count", "trace.spans")
	add("lower", "%", "trace.overhead_pct", "trace.budget_gap_pct")

	add("higher", "count", "lb.requests")
	add("lower", "count", "lb.retries")
	add("lower", "ratio", "lb.backend_share_max")
	twins("us", "lb.self_us")

	twins("us", "tukey.console_us", "tukey.self_us")
	add("lower", "count", "tukey.translations")
	add("lower", "ratio", "tukey.session_gets_per_req")

	twins("us", "tukeystate.get_us", "tukeystate.put_us", "tukeystate.allow_us",
		"tukeystate.server_us", "tukeystate.wire_us")
	add("lower", "ratio", "tukeystate.roundtrips_per_req")
	add("lower", "count", "tukeystate.errors")

	twins("us", "cloudapi.remote_nova_us", "cloudapi.remote_ec2_us", "cloudapi.server_us",
		"cloudapi.wire_us", "cloudapi.server_self_us")
	add("lower", "count", "cloudapi.calls", "cloudapi.errors")
	add("lower", "ratio", "cloudapi.calls_per_req")

	twins("us", "iaas.instances_us", "iaas.launch_us", "iaas.terminate_us", "iaas.running_by_user_us")
	add("lower", "us", "iaas.instances_us_h0", "iaas.instances_us_h4096")
	add("lower", "count", "iaas.records", "iaas.heartbeats")

	// sim under the console workloads: a live, locked clock.
	add("lower", "count", "sim.events_fired", "sim.pending_p50")
	add("lower", "1/s", "sim.events_per_wall_s")
	twins("us", "sim.now_wait_us")
	add("lower", "ms", "sim.driver_lag_ms_p95")
	// sim under the kernel workloads: a batch runner.
	add("lower", "ns", "sim.ns_per_event", "sim.schedule_ns", "sim.cancel_ns")
	add("lower", "ratio", "sim.allocs_per_event", "sim.shard_imbalance")
	add("lower", "ms", "sim.window_ms_p50", "sim.window_ms_max")
	add("lower", "count", "sim.pending_max")

	add("lower", "ms", "telemetry.render_ms")
	add("lower", "count", "telemetry.series")
	add("lower", "ns", "telemetry.observe_ns")

	for _, s := range sweepScenarios {
		add("lower", "ms", "scenario."+s+"_ms_p50")
	}
	add("lower", "%", "scenario.sweep_overhead_pct")
	add("lower", "ms", "transport.simulate_ms", "transport.simulate_shared4_ms")

	add("lower", "count", "go.gc_cycles", "go.goroutines_peak")
	add("lower", "ms", "go.gc_pause_ms_total")
	add("lower", "ratio", "go.mallocs_per_op")
	return out
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	value float64
	n     int
}

// result is one workload run: the oracle's verdict and the metrics taken.
type result struct {
	attempted, failed int
	// problems are oracle checks that did not hold; any entry makes the
	// command exit non-zero.
	problems []string
	metrics  map[string]metric
	// tables are extra human-readable blocks (span table, route budget).
	tables []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, value float64, n int) { r.metrics[name] = metric{value, n} }

func (r *result) problemf(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// setTwins sets stem_p50 and stem_p95 from samples in any order.
func (r *result) setTwins(stem string, samples []float64) {
	asc := sorted(samples)
	r.set(stem+"_p50", percentile(asc, 50), len(asc))
	r.set(stem+"_p95", percentile(asc, 95), len(asc))
}
