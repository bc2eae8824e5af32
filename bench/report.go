package main

// Output: the human tables, the rich -json object, and the one-line result
// object BENCHMARK.json's command contract asks for.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// header says what produced the numbers; two outputs with different C are
// not comparable.
type header struct {
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Transport  string  `json:"transport"`
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "osdc bench: seed %d, %.3g s measured per workload, C=%d clients, GOMAXPROCS=%d of %d CPUs, %s, commit %s\n",
		h.Seed, h.Seconds, h.Clients, h.GOMAXPROCS, h.NumCPU, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "load shape: %s\n", h.Transport)
}

func unitOf(name string, defs []metricDef) (string, bool) {
	for _, d := range defs {
		if d.name == name {
			return d.unit, true
		}
	}
	return "", false
}

// printResult writes one workload's tables.
func printResult(w io.Writer, wl workload, res *result) {
	fmt.Fprintf(w, "\n== %s — %s\n", wl.name, wl.why)
	fmt.Fprintf(w, "%-34s %14s %-6s %10s\n", "metric", "value", "unit", "n")
	layers := layerDefs()
	var names []string
	for name := range res.metrics {
		if _, ok := unitOf(name, endToEnd); !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	row := func(name, unit string) {
		m := res.metrics[name]
		fmt.Fprintf(w, "%-34s %14.6g %-6s %10d\n", name, m.value, unit, m.n)
	}
	for _, d := range endToEnd {
		if _, ok := res.metrics[d.name]; ok {
			row(d.name, d.unit)
		}
	}
	ratio := 0.0
	if res.attempted > 0 {
		ratio = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "%-34s %14.6g %-6s %10d\n", "fail_ratio", ratio, "ratio", res.attempted)
	for _, name := range names {
		unit, _ := unitOf(name, layers)
		row(name, unit)
	}
	for _, t := range res.tables {
		fmt.Fprint(w, "\n"+t)
	}
	if res.correct() {
		fmt.Fprintf(w, "oracle: ok (%d operations checked)\n", res.attempted)
		return
	}
	fmt.Fprintf(w, "oracle: FAILED (%d of %d operations failed)\n", res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Fprintln(w, "  "+p)
	}
}

// spanTable prints count and p50/p95 of total and self time per layer/op.
func spanTable(a *analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "spans (traced phase, µs)\n%-36s %8s %9s %9s %9s %9s\n",
		"layer op", "count", "p50", "p95", "self p50", "self p95")
	keys := make([]spanKey, 0, len(a.byKey))
	for k := range a.byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		x, y := keys[i], keys[j]
		if x.layer != y.layer {
			return x.layer < y.layer
		}
		if x.aux != y.aux {
			return x.aux < y.aux
		}
		return x.op < y.op
	})
	for _, k := range keys {
		d := a.byKey[k]
		total, self := sorted(d.total), sorted(d.self)
		fmt.Fprintf(&b, "%-36s %8d %9.1f %9.1f %9.1f %9.1f\n", k, len(total),
			percentile(total, 50), percentile(total, 95), percentile(self, 50), percentile(self, 95))
	}
	return b.String()
}

// budgetTable prints, per console route, each layer's median self time
// beside the client-observed median: the latency budget.
func budgetTable(a *analysis) string {
	columns := layerNames
	columns[layerClient] = "unattributed" // the client span's own time
	var b strings.Builder
	fmt.Fprintf(&b, "latency budget: median self time per layer, by route (µs)\n%-10s %7s", "route", "n")
	for _, name := range columns {
		fmt.Fprintf(&b, " %*s", len(name)+1, name)
	}
	fmt.Fprintf(&b, " %8s %8s\n", "sum", "client")
	for r := range a.routes {
		rb := &a.routes[r]
		if len(rb.client) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %7d", opNames[r], len(rb.client))
		var sum float64
		for l, name := range columns {
			m := median(rb.self[l])
			sum += m
			fmt.Fprintf(&b, " %*.1f", len(name)+1, m)
		}
		fmt.Fprintf(&b, " %8.1f %8.1f\n", sum, median(rb.client))
	}
	return b.String()
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// contractLine is the last line of a single-workload run: exactly the keys
// correct, attempted, failed and metrics, the metrics being every
// end-to-end metric (-trace 0) or every per-layer metric (-trace 1). A
// per-layer metric whose layer is not on the workload's path reads 0.
func contractLine(res *result, traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = layerDefs()
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		m, ok := res.metrics[d.name]
		if !ok && !traced {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		metrics[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct(), attempted, res.failed, metrics})
	return string(out), err
}

// richLine is -json's object for one workload: everything measured, with
// sample counts, under the header that produced it.
func richLine(h header, wl workload, res *result) (string, error) {
	layers := layerDefs()
	split := func(defs []metricDef) map[string]jsonMetric {
		out := map[string]jsonMetric{}
		for _, d := range defs {
			if m, ok := res.metrics[d.name]; ok {
				out[d.name] = jsonMetric{m.value, d.unit, m.n}
			}
		}
		return out
	}
	out, err := json.Marshal(struct {
		Workload  string                `json:"workload"`
		Header    header                `json:"header"`
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Problems  []string              `json:"problems,omitempty"`
		EndToEnd  map[string]jsonMetric `json:"end_to_end"`
		PerLayer  map[string]jsonMetric `json:"per_layer"`
	}{wl.name, h, res.correct(), res.attempted, res.failed, res.problems, split(endToEnd), split(layers)})
	return string(out), err
}
