package experiments

// Every experiment in this package is exposed through the scenario
// registry, which is what cmd/osdc-bench, the root benchmarks, and the
// integration tests iterate. Porting an experiment means mapping its
// structured result onto scenario.Result: named numeric metrics (so sweeps
// can aggregate across seeds) plus the paper-style formatted table.

import (
	"fmt"
	"strings"

	"osdc/internal/scenario"
	"osdc/internal/sim"
	"osdc/internal/udr"
)

func init() {
	scenario.Register(scenario.New("table1",
		"Table 1 — commercial vs science CSP traffic characterization",
		func(seed uint64) (scenario.Result, error) {
			r := Table1(seed)
			return scenario.Result{
				Metrics: map[string]float64{
					"web-median-bytes":       float64(r.Web.MedianBytes),
					"web-elephant-share":     r.Web.ElephantShare,
					"web-incoming-share":     r.Web.IncomingShare,
					"science-median-bytes":   float64(r.Science.MedianBytes),
					"science-elephant-share": r.Science.ElephantShare,
					"science-incoming-share": r.Science.IncomingShare,
				},
				Table: FormatTable1(r),
			}, nil
		}))

	scenario.Register(scenario.New("table2",
		"Table 2 — OCC resource inventory",
		func(seed uint64) (scenario.Result, error) {
			rows, cores, disk, err := Table2(seed)
			if err != nil {
				return scenario.Result{}, err
			}
			return scenario.Result{
				Metrics: map[string]float64{
					"resources": float64(len(rows)),
					"cores":     float64(cores),
					"disk-TB":   float64(disk),
				},
				Table: FormatTable2(rows, cores, disk),
			}, nil
		}))

	scenario.Register(scenario.New("table3",
		"Table 3 — UDR vs rsync transfer matrix, Chicago↔LVOC (104 ms RTT)",
		func(seed uint64) (scenario.Result, error) {
			rows := Table3(seed)
			metrics := map[string]float64{}
			for _, r := range rows {
				metrics["mbit-108GB["+r.Config.String()+"]"] = r.Mbit108
				metrics["llr-108GB["+r.Config.String()+"]"] = r.LLR108
				metrics["mbit-1.1TB["+r.Config.String()+"]"] = r.Mbit1T
			}
			table := "measured (this reproduction):\n" + FormatTable3(rows) +
				"\npaper (Grossman et al. 2012, Table 3):\n" + FormatTable3(PaperTable3())
			return scenario.Result{Metrics: metrics, Table: table}, nil
		}))

	scenario.Register(scenario.New("fig1",
		"Figure 1 — Tukey end to end over live HTTP",
		func(seed uint64) (scenario.Result, error) {
			r, err := Figure1(seed)
			if err != nil {
				return scenario.Result{}, err
			}
			return scenario.Result{
				Metrics: map[string]float64{
					"instances-launched": float64(r.Launched),
					"clouds-aggregated":  float64(r.Clouds),
					"core-hours-2h":      r.CoreHours,
				},
				Table: r.Log,
			}, nil
		}))

	scenario.Register(scenario.New("fig2",
		"Figure 2 — Project Matsu flood detection on OCC-Matsu",
		func(seed uint64) (scenario.Result, error) {
			r, err := Figure2(seed, 256, 256)
			if err != nil {
				return scenario.Result{}, err
			}
			table := fmt.Sprintf("EO-1 Hyperion tiles over Namibia (≈ flood, ^ fire, . clear):\n%s"+
				"flooded tiles: %d/%d (%.2f km²), alerts: %d\n"+
				"mapreduce job: %v on OCC-Matsu, %.0f%% data-local maps\n",
				r.TileMap, r.FloodTiles, r.TotalTiles, r.FloodKm2, r.Alerts,
				sim.Time(r.JobDuration), 100*r.Locality)
			return scenario.Result{
				Metrics: map[string]float64{
					"flood-tiles":  float64(r.FloodTiles),
					"total-tiles":  float64(r.TotalTiles),
					"flood-km2":    r.FloodKm2,
					"alerts":       float64(r.Alerts),
					"job-seconds":  r.JobDuration,
					"map-locality": r.Locality,
				},
				Table: table,
			}, nil
		}))

	scenario.Register(scenario.New("fig3",
		"Figure 3 — OSDC cluster topology",
		func(seed uint64) (scenario.Result, error) {
			out, err := Figure3(seed)
			if err != nil {
				return scenario.Result{}, err
			}
			return scenario.Result{
				Metrics: map[string]float64{
					"clusters":   float64(strings.Count(out, "OSDC-") + strings.Count(out, "OCC-")),
					"full-tukey": float64(strings.Count(out, "solid")),
				},
				Table: out,
			}, nil
		}))

	scenario.Register(scenario.New("cost",
		"§9.1 — OSDC rack vs AWS utilization sweep",
		func(seed uint64) (scenario.Result, error) {
			r := CostSweep()
			osdcCheaper := 0
			for _, row := range r.Rows {
				if row.OSDCCheaper {
					osdcCheaper++
				}
			}
			return scenario.Result{
				Metrics: map[string]float64{
					"crossover-utilization": r.Crossover,
					"osdc-cheaper-points":   float64(osdcCheaper),
					"sweep-points":          float64(len(r.Rows)),
				},
				Table: FormatCostSweep(r),
			}, nil
		}))

	scenario.Register(scenario.New("provision",
		"§7.3 — bare metal to cloud, manual vs automated rack install",
		func(seed uint64) (scenario.Result, error) {
			r := Provisioning(seed)
			return scenario.Result{
				Metrics: map[string]float64{
					"automated-hours": r.AutomatedDur / sim.Hour,
					"manual-days":     r.ManualDur / sim.Day,
					"speedup":         r.Speedup,
					"retries":         float64(r.Retries),
				},
				Table: FormatProvisioning(r),
			}, nil
		}))

	scenario.Register(scenario.New("ciphers",
		"Cipher self-test and modeled throughput caps",
		func(seed uint64) (scenario.Result, error) {
			out, err := CipherSanity()
			if err != nil {
				return scenario.Result{}, err
			}
			metrics := map[string]float64{}
			for _, cfg := range udr.Table3Configs() {
				caps := cfg.Caps()
				metrics["cap-mbit["+cfg.String()+"]"] = caps.Min() / 1e6
			}
			return scenario.Result{Metrics: metrics, Table: out}, nil
		}))

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
