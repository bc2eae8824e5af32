package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"osdc/internal/core"
	"osdc/internal/scenario"
)

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"table1", "table2", "table3", "fig1", "fig2", "fig3",
		"cost", "provision", "ciphers", "mixed-workload", "wan-contention",
		"console-load", "console-knee", "million-entity"}
	have := map[string]bool{}
	for _, n := range scenario.Names() {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("scenario %q not registered", n)
		}
	}
}

func TestMixedWorkloadDeterministic(t *testing.T) {
	a, err := MixedWorkload(21, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MixedWorkload(21, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a.Metrics, b.Metrics)
	}
	if a.Metrics["vm-core-hours"] != 96 {
		t.Fatalf("4 m1.large for 6h = %v core-hours, want 96", a.Metrics["vm-core-hours"])
	}
	if a.Metrics["elephant-mbit"] <= 0 || a.Metrics["science-total-TB"] <= 0 {
		t.Fatalf("metrics incomplete: %v", a.Metrics)
	}
}

// TestMixedWorkloadShardInvariant: the sharded kernel changes which engine
// fires each instance timer, never what the run computes — every metric
// except the shards marker matches the single-engine run exactly.
func TestMixedWorkloadShardInvariant(t *testing.T) {
	serial, err := MixedWorkload(21, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := MixedWorkload(21, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Metrics["shards"] != 8 {
		t.Fatalf("sharded run did not report its shard count: %v", sharded.Metrics)
	}
	if _, ok := serial.Metrics["shards"]; ok {
		t.Fatalf("K=1 run leaked the shards key (golden would change): %v", serial.Metrics)
	}
	for key, want := range serial.Metrics {
		if got := sharded.Metrics[key]; got != want {
			t.Fatalf("%s diverged on the sharded kernel: K=1 %v, K=8 %v", key, want, got)
		}
	}
}

// deterministicAggregates strips the live- (wall-clock-measured) metrics
// from a sweep result, leaving only the seed-deterministic ones.
func deterministicAggregates(sr scenario.SweepResult) map[string]scenario.Aggregate {
	out := map[string]scenario.Aggregate{}
	for _, m := range sr.Metrics {
		if !strings.HasPrefix(m.Metric, "live-") {
			out[m.Metric] = m
		}
	}
	return out
}

// TestConsoleLoadSweepDeterministic runs the console-load scenario over a
// multi-seed sweep twice: the live latency metrics may differ run to run,
// but the request accounting must be bit-identical — concurrency must not
// leak into the deterministic surface. A failure prints every failed
// request the runs recorded.
func TestConsoleLoadSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("live-HTTP load scenario")
	}
	s, ok := scenario.Get("console-load")
	if !ok {
		t.Fatal("console-load not registered")
	}
	// Keep the table of every run that saw a failed request: it lists the
	// failures record by record.
	var mu sync.Mutex
	var failed []string
	recorded := scenario.New(s.Name(), s.Describe(), func(seed uint64) (scenario.Result, error) {
		r, err := s.Run(seed)
		if r.Metrics["request-errors"] > 0 {
			mu.Lock()
			failed = append(failed, fmt.Sprintf("seed %d:\n%s", seed, r.Table))
			mu.Unlock()
		}
		return r, err
	})
	seeds := scenario.Seeds(31, 2)
	a, err := scenario.Sweep(recorded, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Sweep(recorded, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) > 0 {
		t.Fatalf("console requests failed under load:\n%s", strings.Join(failed, "\n"))
	}
	da, db := deterministicAggregates(a), deterministicAggregates(b)
	if len(da) == 0 {
		t.Fatalf("no deterministic metrics in %v", a.Metrics)
	}
	if !reflect.DeepEqual(da, db) {
		t.Fatalf("deterministic metrics diverged across identical sweeps:\n%v\nvs\n%v", da, db)
	}
	if agg := da["usage-nonzero"]; agg.Min != 1 {
		t.Fatalf("a researcher saw zero usage despite the clock driver: %+v", agg)
	}
	// Every live- metric must still be reported (the whole point of the
	// scenario) even though its values float.
	for _, name := range []string{"live-rps", "live-p50-ms", "live-p95-ms", "live-p99-ms"} {
		found := false
		for _, m := range a.Metrics {
			if m.Metric == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("sweep lost metric %s: %v", name, a.Metrics)
		}
	}
}

// TestConsoleLoadRemoteTopology runs the same workload in the per-site
// topologies — every cloud behind its own engine and listener, billing
// sampling over the wire, with free-running and then followed clocks. The
// deterministic surface must match the single-process run: same request
// count, zero errors, usage metered.
func TestConsoleLoadRemoteTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("live-HTTP load scenario")
	}
	local, err := ConsoleLoad(31, ConsoleLoadOpts{Users: 8, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if local.Metrics["remote-topology"] != 0 {
		t.Fatalf("single-process run flagged remote: %v", local.Metrics)
	}
	for _, topo := range []core.Topology{core.PerSite, core.FollowedClocks} {
		remote, err := ConsoleLoad(31, ConsoleLoadOpts{Users: 8, Iters: 5, Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"requests-total", "request-errors", "instances-launched", "usage-nonzero"} {
			if remote.Metrics[key] != local.Metrics[key] {
				t.Fatalf("topology %d: %s diverged: remote=%v local=%v",
					topo, key, remote.Metrics[key], local.Metrics[key])
			}
		}
		if remote.Metrics["request-errors"] != 0 {
			t.Fatalf("topology %d saw request errors:\n%s", topo, remote.Table)
		}
		if remote.Metrics["usage-nonzero"] != 1 {
			t.Fatalf("topology %d metered no usage: %v", topo, remote.Metrics)
		}
		if remote.Metrics["remote-topology"] != 1 {
			t.Fatalf("topology %d not flagged remote: %v", topo, remote.Metrics)
		}
		if follows := remote.Metrics["clock-follow"] == 1; follows != (topo == core.FollowedClocks) {
			t.Fatalf("topology %d: clock-follow = %v", topo, remote.Metrics["clock-follow"])
		}
		if topo == core.FollowedClocks && remote.Metrics["live-clock-syncs"] == 0 {
			t.Fatalf("followed clocks never synced: %v", remote.Metrics)
		}
	}
}

// TestConsoleLoadParams pins that scenario params actually reshape the
// workload: more users and iterations mean proportionally more requests.
func TestConsoleLoadParams(t *testing.T) {
	if testing.Short() {
		t.Skip("live-HTTP load scenario")
	}
	p, ok := scenario.Get("console-load")
	if !ok {
		t.Fatal("console-load not registered")
	}
	param, ok := p.(scenario.Parametric)
	if !ok {
		t.Fatal("console-load is not parametric")
	}
	small, err := param.With(map[string]float64{"users": 2, "iters": 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := small.Run(77)
	if err != nil {
		t.Fatal(err)
	}
	// 2 users × (login + persistent launch) + 2 × 1 iteration × 6 ops
	// + 2 × (usage + terminate) in the wind-down.
	if got := r.Metrics["requests-total"]; got != 2*2+2*6+2*2 {
		t.Fatalf("requests-total = %v with users=2 iters=1, want 20", got)
	}
	if r.Metrics["users"] != 2 || r.Metrics["iterations"] != 1 {
		t.Fatalf("params not reflected in metrics: %v", r.Metrics)
	}
	if _, err := param.With(map[string]float64{"no-such-param": 1}); err == nil {
		t.Fatal("unknown parameter silently accepted")
	}
}

// TestConsoleKneeShape checks one cheap grid point of the (users ×
// replicas) sweep end to end: 2 replica consoles over a live state plane
// behind the balancer, with exact request accounting and zero errors.
// (The full default grid is pinned by the osdc-bench golden.)
func TestConsoleKneeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live-HTTP load scenario")
	}
	const users, replicas = 32, 2
	r, err := ConsoleKnee(13, ConsoleKneeOpts{Users: users, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("[%d-users,%d-replicas]", users, replicas)
	// login + iters × 4 read routes per user.
	want := float64(users * (1 + kneeIters*4))
	if got := r.Metrics["requests-total"+key]; got != want {
		t.Fatalf("requests-total%s = %v, want %v", key, got, want)
	}
	if errs := r.Metrics["request-errors"+key]; errs != 0 {
		t.Fatalf("request-errors%s = %v", key, errs)
	}
	if _, ok := r.Metrics["live-p95-ms"+key]; !ok {
		t.Fatalf("missing p95 for %s: %v", key, r.Metrics)
	}
	if k, ok := r.Metrics[fmt.Sprintf("live-knee-users[%d-replicas]", replicas)]; !ok || k != 0 {
		t.Fatalf("single-point run should report knee 0, got %v (present %v)", k, ok)
	}
}

func TestWANContentionSharesThePipe(t *testing.T) {
	r, err := WANContention(11)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"1-flows", "2-flows", "4-flows", "8-flows"} {
		util := r.Metrics["utilization["+key+"]"]
		if util <= 0 || util > 1.02 {
			t.Fatalf("utilization[%s] = %v out of (0,1]", key, util)
		}
		if f := r.Metrics["fairness["+key+"]"]; f < 0.8 {
			t.Fatalf("fairness[%s] = %v, identical flows should share evenly", key, f)
		}
	}
	// Aggregate throughput must never exceed the bottleneck, and more
	// flows must not fill the pipe less than one flow does (ramp-up
	// amortizes across flows).
	if r.Metrics["utilization[8-flows]"] < r.Metrics["utilization[1-flows]"] {
		t.Fatalf("8 flows underused the path vs 1: %v", r.Metrics)
	}
}
