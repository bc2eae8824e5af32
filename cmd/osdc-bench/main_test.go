package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"osdc/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files")

// normalizeGolden makes live-measurement scenarios golden-able: metrics
// whose names carry the "live-" prefix are wall-clock measurements
// (latency percentiles, requests/sec) that legitimately differ run to
// run, so their values — and the table that renders them — are zeroed
// before comparison. Scenarios without live- metrics pass through
// byte-identical.
func normalizeGolden(t *testing.T, raw []byte) []byte {
	t.Helper()
	var entries []map[string]interface{}
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("golden JSON: %v", err)
	}
	touched := false
	for _, e := range entries {
		metrics, _ := e["metrics"].(map[string]interface{})
		live := false
		for k := range metrics {
			if strings.HasPrefix(k, "live-") {
				metrics[k] = 0.0
				live = true
			}
		}
		if live {
			touched = true
			delete(e, "table")
		}
	}
	if !touched {
		return raw
	}
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestEveryScenarioDispatches runs every registered scenario through the
// CLI's -exp dispatch with a small seed, asserting each produces formatted
// output, and golden-files the -json form.
func TestEveryScenarioDispatches(t *testing.T) {
	names := scenario.Names()
	if len(names) < 11 {
		t.Fatalf("registry holds %d scenarios, want >= 11: %v", len(names), names)
	}
	// The formatted-output check reruns the scenario a second time; for
	// scenarios whose default sweep is expensive (console-knee stands up
	// 9 federations), pin the formatted run to one cheap grid point. The
	// -json golden below still runs the full default sweep.
	formattedParams := map[string][]string{
		"console-knee": {"-param", "users=128,replicas=2"},
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if name == "console-knee" && raceEnabled {
				// The knee grid is ~140k HTTP requests of CPU-bound load:
				// minutes under the race detector for no new interleavings.
				// Raced coverage of this stack comes from the lb tests, the
				// tukey-server multi-replica smoke test, and console-load.
				t.Skip("console-knee golden skipped under -race")
			}
			var out bytes.Buffer
			if err := run(append([]string{"-exp", name, "-seed", "7"}, formattedParams[name]...), &out); err != nil {
				t.Fatalf("run -exp %s: %v", name, err)
			}
			if out.Len() == 0 {
				t.Fatalf("-exp %s produced no output", name)
			}
			if !strings.Contains(out.String(), "metrics (seed 7)") {
				t.Fatalf("-exp %s output missing metrics block:\n%s", name, out.String())
			}

			var jsonOut bytes.Buffer
			if err := run([]string{"-exp", name, "-seed", "7", "-json"}, &jsonOut); err != nil {
				t.Fatalf("run -exp %s -json: %v", name, err)
			}
			var parsed []struct {
				Scenario string             `json:"scenario"`
				Seed     uint64             `json:"seed"`
				Metrics  map[string]float64 `json:"metrics"`
			}
			if err := json.Unmarshal(jsonOut.Bytes(), &parsed); err != nil {
				t.Fatalf("-exp %s -json is not valid JSON: %v", name, err)
			}
			if len(parsed) != 1 || parsed[0].Scenario != name || len(parsed[0].Metrics) == 0 {
				t.Fatalf("-exp %s -json parsed to %+v", name, parsed)
			}

			normalized := normalizeGolden(t, jsonOut.Bytes())
			golden := filepath.Join("testdata", name+".json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, normalized, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(want, normalized) {
				t.Errorf("-exp %s -json drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s",
					name, golden, normalized, want)
			}
		})
	}
}

func TestSweepAggregatesOverSeeds(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "provision", "-seed", "3", "-seeds", "8", "-parallel", "4", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var sweeps []scenario.SweepResult
	if err := json.Unmarshal(out.Bytes(), &sweeps); err != nil {
		t.Fatalf("sweep JSON: %v\n%s", err, out.String())
	}
	if len(sweeps) != 1 || sweeps[0].Scenario != "provision" || len(sweeps[0].Seeds) != 8 {
		t.Fatalf("sweep = %+v", sweeps)
	}
	var speedup *scenario.Aggregate
	for i := range sweeps[0].Metrics {
		if sweeps[0].Metrics[i].Metric == "speedup" {
			speedup = &sweeps[0].Metrics[i]
		}
	}
	if speedup == nil || speedup.N != 8 || speedup.Mean <= 1 {
		t.Fatalf("speedup aggregate = %+v", speedup)
	}
	if speedup.Min > speedup.Mean || speedup.Mean > speedup.Max {
		t.Fatalf("aggregate ordering broken: %+v", speedup)
	}
}

func TestListFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("-list missing %s:\n%s", name, out.String())
		}
	}
}

func TestUnknownScenarioErrors(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "does-not-exist"}, &out)
	if err == nil || !strings.Contains(err.Error(), "does-not-exist") {
		t.Fatalf("err = %v, want unknown-scenario error", err)
	}
	if !strings.Contains(err.Error(), "table3") {
		t.Fatalf("error should list available scenarios: %v", err)
	}
}

func TestBadSeedCount(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seeds", "0"}, &out); err == nil {
		t.Fatal("expected error for -seeds 0")
	}
}

func TestParamOverridesWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "console-load", "-seed", "5", "-param", "users=2,iters=1", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var parsed []struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("-param -json: %v\n%s", err, out.String())
	}
	if len(parsed) != 1 || parsed[0].Metrics["users"] != 2 || parsed[0].Metrics["iterations"] != 1 {
		t.Fatalf("params not applied: %+v", parsed)
	}
}

func TestParamErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-param", "users=2"}, &out); err == nil || !strings.Contains(err.Error(), "-exp") {
		t.Fatalf("err = %v, want -param-requires--exp error", err)
	}
	if err := run([]string{"-exp", "table1", "-param", "users=2"}, &out); err == nil || !strings.Contains(err.Error(), "no parameters") {
		t.Fatalf("err = %v, want takes-no-parameters error", err)
	}
	if err := run([]string{"-exp", "console-load", "-param", "bogus"}, &out); err == nil {
		t.Fatal("malformed -param accepted")
	}
	if err := run([]string{"-exp", "console-load", "-param", "userz=3"}, &out); err == nil || !strings.Contains(err.Error(), "userz") {
		t.Fatalf("err = %v, want unknown-parameter error", err)
	}
}

func TestListShowsParams(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"users=8", "topology=0"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list does not show console-load param %s:\n%s", want, out.String())
		}
	}
}

// TestMutexProfileWritten: -mutexprofile captures a pprof mutex profile of
// the run into the named file.
func TestMutexProfileWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mutex.pb.gz")
	var out bytes.Buffer
	if err := run([]string{"-exp", "provision", "-seed", "3", "-mutexprofile", path}, &out); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("mutex profile not written: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("mutex profile is empty")
	}
}

// TestShardedGoldensPinnedAtK1 is the sharded live path's backward-
// compatibility gate: running the scenarios that grew a shard axis with an
// explicit shards=1 override must reproduce the pre-sharding goldens byte
// for byte — K=1 is not "approximately the old behavior", it IS the old
// behavior (same engine seeding, same serial dispatch, no extra metric
// keys).
func TestShardedGoldensPinnedAtK1(t *testing.T) {
	cases := map[string]string{
		"console-load":   "shards=1,bg-instances=0",
		"mixed-workload": "shards=1",
	}
	for name, params := range cases {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-exp", name, "-seed", "7", "-param", params, "-json"}, &out); err != nil {
				t.Fatalf("run -exp %s -param %s: %v", name, params, err)
			}
			normalized := normalizeGolden(t, out.Bytes())
			want, err := os.ReadFile(filepath.Join("testdata", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, normalized) {
				t.Errorf("explicit K=1 run of %s drifted from the pre-sharding golden\n--- got ---\n%s\n--- want ---\n%s",
					name, normalized, want)
			}
		})
	}
}

// TestDeterministicAccountingPinnedAcrossTopologies is the federated clock
// plane's acceptance invariant, checked on live runs: console-load in the
// per-site topology (topology=1) and with followed clocks (topology=2)
// must match the single-process golden on every deterministic metric
// (request accounting, launches, dataset hits, usage visibility).
// Topology markers and live- measurements are the only permitted
// differences.
func TestDeterministicAccountingPinnedAcrossTopologies(t *testing.T) {
	topologyKeys := map[string]bool{"remote-topology": true, "clock-follow": true}
	deterministic := func(raw []byte) map[string]float64 {
		t.Helper()
		var entries []struct {
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &entries); err != nil || len(entries) != 1 {
			t.Fatalf("console-load JSON (%d entries): %v\n%s", len(entries), err, raw)
		}
		det := map[string]float64{}
		for k, v := range entries[0].Metrics {
			if !strings.HasPrefix(k, "live-") && !topologyKeys[k] {
				det[k] = v
			}
		}
		return det
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "console-load.json"))
	if err != nil {
		t.Fatal(err)
	}
	base := deterministic(raw)
	if base["requests-total"] == 0 {
		t.Fatal("baseline golden has no request accounting")
	}
	for _, topology := range []string{"topology=1", "topology=2"} {
		var out bytes.Buffer
		if err := run([]string{"-exp", "console-load", "-seed", "7", "-param", topology, "-json"}, &out); err != nil {
			t.Fatalf("run -param %s: %v", topology, err)
		}
		got := deterministic(out.Bytes())
		if len(got) != len(base) {
			t.Errorf("%s deterministic keys %d != golden %d", topology, len(got), len(base))
		}
		for k, v := range base {
			if gv, ok := got[k]; !ok || gv != v {
				t.Errorf("%s: metric %s = %v, golden %v", topology, k, gv, v)
			}
		}
	}
}
