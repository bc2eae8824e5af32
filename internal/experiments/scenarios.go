package experiments

// Every experiment in this package is exposed through the scenario
// registry, which is what cmd/osdc-bench, bench/ and the integration
// tests iterate. Each run function builds its scenario.Result itself:
// named numeric metrics (so sweeps can aggregate across seeds) plus the
// paper-style formatted table.

import "osdc/internal/scenario"

func init() {
	scenario.Register(scenario.New("table1", "Table 1 — commercial vs science CSP traffic characterization", Table1))
	scenario.Register(scenario.New("table2", "Table 2 — OCC resource inventory", Table2))
	scenario.Register(scenario.New("table3", "Table 3 — UDR vs rsync transfer matrix, Chicago↔LVOC (104 ms RTT)", Table3))
	scenario.Register(scenario.New("fig1", "Figure 1 — Tukey end to end over live HTTP", Figure1))
	scenario.Register(scenario.New("fig2", "Figure 2 — Project Matsu flood detection on OCC-Matsu", Figure2))
	scenario.Register(scenario.New("fig3", "Figure 3 — OSDC cluster topology", Figure3))
	scenario.Register(scenario.New("cost", "§9.1 — OSDC rack vs AWS utilization sweep", CostSweep))
	scenario.Register(scenario.New("provision", "§7.3 — bare metal to cloud, manual vs automated rack install", Provisioning))
	scenario.Register(scenario.New("ciphers", "Cipher self-test and modeled throughput caps", Ciphers))

	// mixed-workload's shards param runs the composition on the sharded
	// kernel; the default (1) is the historic single-engine run.
	scenario.Register(scenario.NewParametric("mixed-workload", mixedWorkloadDesc,
		map[string]float64{"shards": 1},
		func(seed uint64, params map[string]float64) (scenario.Result, error) {
			return MixedWorkload(seed, int(params["shards"]))
		}))
	scenario.Register(scenario.New("wan-contention", wanContentionDesc, WANContention))

	// console-load takes its workload shape and federation topology from
	// scenario params (osdc-bench -param users=32,topology=2,...). shards > 1
	// puts the live path on the sharded kernel; bg-instances > 0
	// (single-process topology only) parks that many background VMs on
	// Adler first — the 10⁵-entity grid the sharded p95 benchmarks sweep.
	// Every topology must reproduce the same deterministic request
	// accounting: only the clocks and transports differ.
	scenario.Register(scenario.NewParametric("console-load", consoleLoadDesc,
		map[string]float64{"users": 8, "iters": 5, "think-ms": 0, "shards": 1, "bg-instances": 0, "topology": 0},
		func(seed uint64, params map[string]float64) (scenario.Result, error) {
			return ConsoleLoad(seed, consoleLoadOptsFrom(params))
		}))
	// console-knee sweeps a (users × replicas) grid by default; fixing
	// either param (e.g. -param users=1024,replicas=4) runs one point.
	scenario.Register(scenario.NewParametric("console-knee", consoleKneeDesc,
		map[string]float64{"users": 0, "replicas": 0, "iters": 0},
		func(seed uint64, params map[string]float64) (scenario.Result, error) {
			return ConsoleKnee(seed, consoleKneeOptsFrom(params))
		}))
	scenario.Register(scenario.New("rate-limit-sweep", rateLimitSweepDesc, RateLimitSweep))

	// The sharded kernel's scale workload: defaults hit 10⁵ entities in a
	// few wall seconds; -param entities=1000000 stays within minutes.
	scenario.Register(scenario.NewParametric("million-entity", millionEntityDesc,
		map[string]float64{"entities": 100000, "shards": 8, "hours": 1},
		MillionEntity))

	// The data plane: replication-factor × bandwidth convergence sweep,
	// and the GRANDMA-style stage-then-compute campaign. Both run purely
	// on virtual clocks, so every metric is seed-deterministic.
	scenario.Register(scenario.New("replication-sweep", replicationSweepDesc, ReplicationSweep))
	scenario.Register(scenario.New("stage-and-compute", stageAndComputeDesc, StageAndCompute))

	// The telemetry plane end to end, on virtual clocks only: the full
	// /console/stream SSE transcript is golden-pinned byte for byte.
	scenario.Register(scenario.New("telemetry-stream", telemetryStreamDesc, TelemetryStream))
}
