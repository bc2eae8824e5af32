package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// buildRegistry populates a registry with one of everything, labelled and
// unlabelled, so render tests exercise every family shape at once.
func buildRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("osdc_requests_total", "Requests served.", Label{"route", "GET /x"}).Add(3)
	reg.Counter("osdc_requests_total", "Requests served.", Label{"route", "POST /y"}).Inc()
	reg.Counter("osdc_errors_total", "Errors.").Add(2)
	reg.Gauge("osdc_backends", "Live backends.").Set(4)
	reg.GaugeFunc("osdc_pending", "Queued events.", func() float64 { return 17 })
	reg.CounterFunc("osdc_fired_total", "Fired events.", func() float64 { return 99 }, Label{"shard", "0"})
	h := reg.Histogram("osdc_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	reg.SampleFunc("osdc_link_bytes_total", "Per-link bytes.", "counter", func() []Sample {
		return []Sample{
			{Labels: []Label{{"link", "b->a"}}, Value: 7},
			{Labels: []Label{{"link", "a->b"}}, Value: 12},
		}
	})
	return reg
}

func TestRenderShape(t *testing.T) {
	out := string(buildRegistry().Render())
	for _, want := range []string{
		"# TYPE osdc_requests_total counter",
		`osdc_requests_total{route="GET /x"} 3`,
		`osdc_requests_total{route="POST /y"} 1`,
		"osdc_errors_total 2",
		"osdc_backends 4",
		"osdc_pending 17",
		`osdc_fired_total{shard="0"} 99`,
		`osdc_latency_seconds_bucket{le="0.01"} 1`,
		`osdc_latency_seconds_bucket{le="0.1"} 2`,
		`osdc_latency_seconds_bucket{le="1"} 2`,
		`osdc_latency_seconds_bucket{le="+Inf"} 3`,
		"osdc_latency_seconds_sum 5.055",
		"osdc_latency_seconds_count 3",
		`osdc_link_bytes_total{link="a->b"} 12`,
		`osdc_link_bytes_total{link="b->a"} 7`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("render missing %q\n%s", want, out)
		}
	}
}

// TestRenderStability pins the format-determinism contract: two renders
// of an unchanged registry are byte-identical, and the series come out
// sorted (families by name, series by label block).
func TestRenderStability(t *testing.T) {
	reg := buildRegistry()
	first := reg.Render()
	second := reg.Render()
	if !bytes.Equal(first, second) {
		t.Fatalf("two renders differ:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	var series []string
	for _, line := range strings.Split(string(first), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series = append(series, line)
	}
	// Family names must appear in sorted blocks; series within a family
	// sorted by label key. Extract the family prefix (up to '{' or ' ')
	// with histogram suffixes folded back onto their family.
	famOf := func(s string) string {
		name := s
		if i := strings.IndexAny(s, "{ "); i >= 0 {
			name = s[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suf)
		}
		return name
	}
	fams := make([]string, 0, len(series))
	for _, s := range series {
		if n := famOf(s); len(fams) == 0 || fams[len(fams)-1] != n {
			fams = append(fams, n)
		}
	}
	if !sort.StringsAreSorted(fams) {
		t.Errorf("families not sorted: %v", fams)
	}
}

func TestSnapshotAndParseRoundTrip(t *testing.T) {
	reg := buildRegistry()
	snap := reg.Snapshot()
	parsed, err := ParseText(reg.Render())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(snap) {
		t.Fatalf("parsed %d series, snapshot has %d", len(parsed), len(snap))
	}
	for k, v := range snap {
		got, ok := parsed[k]
		if !ok {
			t.Errorf("parse lost series %s", k)
			continue
		}
		if math.Abs(got-v) > 1e-9 {
			t.Errorf("%s: parsed %v, snapshot %v", k, got, v)
		}
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d after negative add, want 5", c.Value())
	}
}

func TestSameSeriesReturnsSameHandle(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x", Label{"k", "v"})
	b := reg.Counter("x_total", "x", Label{"k", "v"})
	if a != b {
		t.Fatal("same name+labels minted two counter handles")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles do not share state")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "x")
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "esc", Label{"path", `a"b\c`}).Inc()
	out := string(reg.Render())
	if !strings.Contains(out, `esc_total{path="a\"b\\c"} 1`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
}

// TestServeMetricsGate pins gating parity with ServePprof: 404 with no
// secret configured, 403 without the header, 200 with it.
func TestServeMetricsGate(t *testing.T) {
	reg := buildRegistry()
	get := func(secret, header string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		if header != "" {
			req.Header.Set("X-OSDC-Operator", header)
		}
		ServeMetrics(secret, reg, rec, req)
		return rec
	}
	if rec := get("", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("ungated /metrics = %d, want 404", rec.Code)
	}
	if rec := get("s3cret", ""); rec.Code != http.StatusForbidden {
		t.Fatalf("unauthenticated /metrics = %d, want 403", rec.Code)
	}
	if rec := get("s3cret", "wrong"); rec.Code != http.StatusForbidden {
		t.Fatalf("wrong-secret /metrics = %d, want 403", rec.Code)
	}
	rec := get("s3cret", "s3cret")
	if rec.Code != http.StatusOK {
		t.Fatalf("authenticated /metrics = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "osdc_requests_total") {
		t.Fatalf("authenticated /metrics body missing series:\n%s", rec.Body.String())
	}
}

// TestCounterIncAllocs gates the registry hot path: counters sit on every
// instrumented console request, so an increment is one atomic add and
// never allocates.
func TestCounterIncAllocs(t *testing.T) {
	c := NewRegistry().Counter("bench_total", "bench", Label{"route", "GET /bench"})
	if a := testing.AllocsPerRun(1000, c.Inc); a != 0 {
		t.Fatalf("Counter.Inc allocates %.0f times per call, want 0", a)
	}
}

// TestHistogramObserveAllocs gates the latency-observation path the same
// way: one bucket walk plus three atomics, no allocation.
func TestHistogramObserveAllocs(t *testing.T) {
	h := NewRegistry().Histogram("bench_seconds", "bench", LatencyBuckets)
	if a := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); a != 0 {
		t.Fatalf("Histogram.Observe allocates %.0f times per call, want 0", a)
	}
}

// BenchmarkCounterInc times the registry hot path: one atomic add.
func BenchmarkCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_total", "bench", Label{"route", "GET /bench"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve tracks the latency-observation path.
func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench_seconds", "bench", LatencyBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}

// BenchmarkSnapshot200Series measures one Snapshot() sweep over a
// 200-series registry — the cold path the streamer walks once per frame
// and the exposition handler walks once per scrape.
func BenchmarkSnapshot200Series(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 200; i++ {
		reg.Counter(fmt.Sprintf("bench_series_%03d_total", i), "bench",
			Label{"shard", strconv.Itoa(i % 8)}).Add(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reg.Snapshot()
	}
}

// TestConcurrentRegisterAndRender pins the registry's central concurrency
// contract: lazy registration (console routes instrumented on the first
// request) may race a render (/metrics scrape, Streamer tick) without the
// renderer iterating a family map another goroutine is growing — which
// would be an unrecoverable runtime throw, not just a flaky value. Run
// with -race this also proves the snapshot path takes the lock and that a
// series only becomes visible to it once its handle is set.
func TestConcurrentRegisterAndRender(t *testing.T) {
	reg := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			reg.Counter("osdc_requests_total", "Requests served.",
				Label{"route", "GET /r" + strconv.Itoa(i)}).Inc()
			reg.Histogram("osdc_latency_seconds", "Latency.", LatencyBuckets,
				Label{"route", "GET /r" + strconv.Itoa(i)}).Observe(0.002)
		}
	}()
	for i := 0; i < 200; i++ {
		_ = reg.Render()
		_ = reg.Snapshot()
	}
	<-done
}
