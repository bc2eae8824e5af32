package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric catalogue")

// TestValidateOnly builds every rig (untraced and traced), runs one unit
// of work on each and every oracle: the benchmark's shape, without its
// duration. It is what `go test` and `go test -race` cover.
func TestValidateOnly(t *testing.T) {
	var notes bytes.Buffer
	stderr = &notes
	defer func() { stderr = os.Stderr }()
	var out bytes.Buffer
	if code := run([]string{"-validate-only"}, &out); code != 0 {
		t.Fatalf("-validate-only exited %d\n%s\n%s", code, notes.String(), out.String())
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), "== "+w.name) {
			t.Errorf("no table for %s", w.name)
		}
	}
	if strings.Contains(out.String(), "oracle: FAILED") {
		t.Errorf("an oracle failed:\n%s", out.String())
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	stderr = io.Discard
	defer func() { stderr = os.Stderr }()
	for _, args := range [][]string{{"-workload", "console-nope"}, {"-seconds", "0"}, {"-trace", "2"}, {"stray"}} {
		if code := run(args, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {95, 100}, {90, 90}, {91, 100}, {10, 10}, {1, 10}, {100, 100},
	} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// The highest percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {10, 0}, {11, 100.0 / 11}, {200, 95}, {1000, 99}, {100000, 99.99}} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The claim itself: exactly ten samples lie beyond that percentile.
	asc := make([]float64, 200)
	for i := range asc {
		asc[i] = float64(i)
	}
	if v := percentile(asc, tailPercentile(len(asc))); v != 189 {
		t.Errorf("tail value %v, want 189 (ten samples beyond it)", v)
	}
}

func TestStretchPercentile(t *testing.T) {
	// 1005 samples make five stretches of 201; each reads its 191st value.
	flat := make([]float64, 1005)
	for i := range flat {
		flat[i] = float64(i % 201)
	}
	if got := stretchPercentile(flat, 95); got != 190 {
		t.Errorf("undisturbed run: %v, want 190", got)
	}
	// A burst that slows 8 % of the run, all inside the second stretch,
	// moves the whole run's p95 and not the median of the stretches.
	burst := append([]float64(nil), flat...)
	for i := 250; i < 330; i++ {
		burst[i] += 1000
	}
	if whole := percentile(sorted(burst), 95); whole < 1000 {
		t.Fatalf("the burst should decide the whole run's p95, got %v", whole)
	}
	if got := stretchPercentile(burst, 95); got != 190 {
		t.Errorf("burst in one stretch: %v, want 190", got)
	}
	// Too short for three stretches with ten samples beyond each reading:
	// read whole.
	short := flat[:500]
	if got, want := stretchPercentile(short, 95), percentile(sorted(short), 95); got != want {
		t.Errorf("short run: %v, want the whole run's %v", got, want)
	}
}

// syntheticTree is two users' requests interleaved in time, recorded out
// of order, the way concurrent goroutines would.
//
//	user 0: client [0,100] ⊃ tukey [10,90] ⊃ cloudapi [20,50] ⊃ server [25,45]
//	                                        cloudapi [55,85] (no server span)
//	        client [102,140] ⊃ tukey [110,130]
//	user 1: client [5,95]  ⊃ tukey [15,97] (returns 2 after its caller has the reply)
func syntheticTree() []span {
	return []span{
		{user: 0, seq: -1, layer: layerCloudServer, op: opOther, aux: dialectEC2, start: 25, end: 45},
		{user: 1, seq: 3, layer: layerClient, op: opUsage, start: 5, end: 95},
		{user: 0, seq: -1, layer: layerCloud, op: opInstances, aux: dialectEC2, start: 20, end: 50},
		{user: 0, seq: 7, layer: layerClient, op: opInstances, start: 0, end: 100},
		{user: 1, seq: 3, layer: layerTukey, op: opUsage, start: 15, end: 97},
		{user: 0, seq: 8, layer: layerTukey, op: opStatus, start: 110, end: 130},
		{user: 0, seq: -1, layer: layerCloud, op: opInstances, aux: dialectNova, start: 55, end: 85},
		{user: 0, seq: 7, layer: layerTukey, op: opInstances, start: 10, end: 90},
		{user: 0, seq: 8, layer: layerClient, op: opStatus, start: 102, end: 140},
	}
}

func TestAssignParentsByUserAndContainment(t *testing.T) {
	spans := syntheticTree()
	assignParents(spans)
	type row struct {
		user   int32
		layer  layer
		start  int64
		parent int32
		seq    int32
		op     uint8
	}
	var got []row
	for _, s := range spans {
		got = append(got, row{s.user, s.layer, s.start, s.parent, s.seq, s.op})
	}
	want := []row{
		{0, layerClient, 0, -1, 7, opInstances},
		{0, layerTukey, 10, 0, 7, opInstances},
		{0, layerCloud, 20, 1, 7, opInstances},
		{0, layerCloudServer, 25, 2, 7, opInstances}, // verb and seq inherited
		{0, layerCloud, 55, 1, 7, opInstances},
		{0, layerClient, 102, -1, 8, opStatus},
		{0, layerTukey, 110, 5, 8, opStatus},
		// user 1's spans overlap user 0's in time and must not nest in them
		{1, layerClient, 5, -1, 3, opUsage},
		{1, layerTukey, 15, 7, 3, opUsage},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parents:\n got %v\nwant %v", got, want)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := syntheticTree()
	assignParents(spans)
	// client 100−80, tukey 80−30−30, cloudapi 30−20, server 20, cloudapi 30;
	// client 38−20, tukey 20; client 90−80 (the child's overhang does not
	// count against it), tukey 82.
	want := []int64{20, 20, 10, 20, 30, 18, 20, 10, 82}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	// Self times of a tree add up to its root.
	a := analyse(syntheticTree())
	if a.orphans != 0 || a.spans != 9 {
		t.Errorf("analysis: %d spans, %d orphans", a.spans, a.orphans)
	}
	rb := a.routes[opInstances]
	var sum float64
	for l := range rb.self {
		sum += rb.self[l][0]
	}
	if len(rb.client) != 1 || math.Abs(sum-rb.client[0]) > 1e-9 {
		t.Errorf("instances request: layers sum to %v µs, client saw %v", sum, rb.client)
	}
	// Only user 1's overhanging handler (2 in 90, on one request in three)
	// keeps the layers from adding up to what the clients saw.
	if gap := a.budgetGap(); math.Abs(gap-2.0/90/3) > 1e-9 {
		t.Errorf("budget gap %v, want %v", gap, 2.0/90/3)
	}
}

func TestOrphanSpansAreCounted(t *testing.T) {
	a := analyse([]span{{user: 0, seq: -1, layer: layerTukey, op: opUsage, start: 1, end: 2}})
	if a.orphans != 1 {
		t.Errorf("orphans = %d, want 1", a.orphans)
	}
}

func TestContractLine(t *testing.T) {
	res := newResult()
	res.attempted = 10
	for _, d := range endToEnd {
		res.set(d.name, 1.5, 1)
	}
	line, err := contractLine(res, false)
	if err != nil {
		t.Fatal(err)
	}
	type lineShape struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	var got lineShape
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 10 || got.Failed != 0 || len(got.Metrics) != len(endToEnd) {
		t.Errorf("line %s", line)
	}
	if got.Metrics["setup_s"].Unit != "s" {
		t.Errorf("setup_s unit %q", got.Metrics["setup_s"].Unit)
	}
	// Traced: every per-layer metric is present; an unmeasured one reads 0.
	line, err = contractLine(res, true)
	if err != nil {
		t.Fatal(err)
	}
	got = lineShape{}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(layerDefs()) {
		t.Errorf("%d per-layer metrics in the line, catalogue has %d", len(got.Metrics), len(layerDefs()))
	}
	// A missing end-to-end metric is an error, and a problem is incorrect.
	delete(res.metrics, "setup_s")
	if _, err := contractLine(res, false); err == nil {
		t.Error("missing end-to-end metric went unnoticed")
	}
	res.problemf("wrong")
	if res.correct() {
		t.Error("a result with a problem reads correct")
	}
}

// benchmarkFile is ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []fileNamed  `json:"workloads"`
	EndToEnd   []fileMetric `json:"end_to_end"`
	PerLayer   []fileMetric `json:"per_layer"`
}

type fileNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func catalogueFile() benchmarkFile {
	f := benchmarkFile{Command: []string{"go", "-C", "bench", "run", "."}, Paths: []string{"bench"}, RunSeconds: 13}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, fileNamed{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		f.EndToEnd = append(f.EndToEnd, fileMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range layerDefs() {
		f.PerLayer = append(f.PerLayer, fileMetric{d.name, d.unit, d.better, nil})
	}
	return f
}

// TestBenchmarkJSONMatchesCatalogue keeps the declared contract and the
// program in step, and inside the contract's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := catalogueFile()
	if *update {
		raw, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to write it)", err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s differs from the catalogue in metrics.go / workloads.go; run go test -update", path)
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]fileMetric{}, want.EndToEnd...), want.PerLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name or unit too long", m.Name)
		}
		seen[m.Name] = true
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}
