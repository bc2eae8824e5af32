// Package telemetry is the federation's live measurement plane: a
// dependency-free metric registry rendered in the Prometheus text
// exposition format, a cross-site Collector that scrapes member /metrics
// endpoints, and a Streamer that pushes aggregated deltas to operators
// over SSE on the simulation's virtual clock.
//
// The registry exists because every scale claim so far is proven post-hoc
// — scenario goldens and benchmark runs — while a running federation
// shows operators only point-in-time JSON. Counters and histograms ride
// the hot paths (console requests, lb retries, engine dispatch), so the
// increment path is a single atomic add: no locks, no allocations, no
// label hashing at observation time. Label sets are fixed at registration
// and rendered into a sorted, escaped block once, which is also what makes
// two renders of an unchanged registry byte-identical — the property the
// format-stability test and the deterministic stream goldens pin.
package telemetry

import (
	"bufio"
	"bytes"
	"crypto/subtle"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, fixed at registration time.
type Label struct {
	Key   string
	Value string
}

// Sample is one dynamically-labelled observation returned by a SampleFunc
// family — for sources whose label population is not known at
// registration time (replication links appear as transfers happen,
// clock-sync sites attach after startup).
type Sample struct {
	Labels []Label
	Value  float64
}

// Counter is a monotonically increasing metric. The increment path is one
// atomic add: safe on every hot path, zero allocations.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are dropped: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable metric (float64 bits behind one atomic word).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Observe is lock-free: a
// linear scan over the (small, fixed) bound slice, one atomic add on the
// owning bucket, one on the count, and a CAS loop folding the value into
// the sum.
type Histogram struct {
	bounds  []float64       // upper bounds, ascending; +Inf is implicit
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets are the fixed bounds (seconds) the console's per-route
// request histograms use: half a millisecond to 2.5 s, roughly
// logarithmic — the range a loopback federation actually produces.
var LatencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// series is one labelled instance of a family: exactly one of the value
// fields is set, matching the family's type.
type series struct {
	labels string // rendered, sorted label block: "" or `{a="b",c="d"}`
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64 // counterfunc / gaugefunc reading an external source
}

func (s *series) value() float64 {
	switch {
	case s.ctr != nil:
		return float64(s.ctr.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	case s.fn != nil:
		return s.fn()
	}
	return 0
}

// family is every series sharing one metric name.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"

	series   map[string]*series
	sampleFn func() []Sample // dynamic families; exclusive with series
}

// Registry holds metric families. Registration and rendering take the
// registry lock; observation never does — handles returned at
// registration carry their own atomics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelBlock renders a sorted, escaped label block ("" for no labels).
// extra, when non-empty, is appended after the sorted set (the histogram
// `le` bound, which Prometheus convention renders last).
func labelBlock(labels []Label, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(sorted) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register finds or creates the series slot, panicking on a type
// mismatch: metric names are programmer-chosen identifiers and a
// collision between types is always a bug. A fresh series is filled by
// init before it becomes visible, under the lock a render takes to copy
// the series list, so no render sees it half-built.
func (r *Registry) register(name, help, typ string, labels []Label, init func(*series)) (*series, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: %s registered as %s and %s", name, f.typ, typ))
	}
	if f.sampleFn != nil {
		panic("telemetry: " + name + " is a sample-func family; no static series allowed")
	}
	key := labelBlock(labels, "")
	if s, ok := f.series[key]; ok {
		return s, false
	}
	s := &series{labels: key}
	init(s)
	f.series[key] = s
	return s, true
}

// Counter registers (or finds) a counter series and returns its handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s, _ := r.register(name, help, "counter", labels, func(s *series) { s.ctr = &Counter{} })
	if s.ctr == nil {
		panic("telemetry: " + name + " is not a plain counter series")
	}
	return s.ctr
}

// Gauge registers (or finds) a gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s, _ := r.register(name, help, "gauge", labels, func(s *series) { s.gauge = &Gauge{} })
	if s.gauge == nil {
		panic("telemetry: " + name + " is not a plain gauge series")
	}
	return s.gauge
}

// CounterFunc registers a counter series whose value is read from fn at
// render time — the bridge to counters that already exist elsewhere
// (engine fired counts, biller poll errors) without double accounting.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s, fresh := r.register(name, help, "counter", labels, func(s *series) { s.fn = fn })
	if !fresh {
		panic("telemetry: duplicate series " + name + s.labels)
	}
}

// GaugeFunc registers a gauge series read from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s, fresh := r.register(name, help, "gauge", labels, func(s *series) { s.fn = fn })
	if !fresh {
		panic("telemetry: duplicate series " + name + s.labels)
	}
}

// Histogram registers (or finds) a fixed-bucket histogram series.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	s, _ := r.register(name, help, "histogram", labels, func(s *series) {
		s.hist = &Histogram{bounds: append([]float64(nil), buckets...), counts: make([]atomic.Uint64, len(buckets)+1)}
	})
	if s.hist == nil {
		panic("telemetry: " + name + " is not a histogram series")
	}
	return s.hist
}

// SampleFunc registers a whole dynamic family: fn is called at render
// time and may return a different label population every call (per-link
// replication traffic, per-site clock skew). typ is "counter" or "gauge".
func (r *Registry) SampleFunc(name, help, typ string, fn func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("telemetry: duplicate family " + name)
	}
	r.families[name] = &family{name: name, help: help, typ: typ, sampleFn: fn}
}

// formatValue renders a metric value the way the exposition format wants
// it: shortest round-trippable form ('g' with -1 precision renders
// integers without a decimal point).
func formatValue(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// familySnapshot is a render-stable copy of one family taken under the
// registry lock. The series pointers themselves are safe to read without
// it (their values live behind atomics), but the family's series map is
// not: register() grows it under r.mu, so iterating the live map while a
// lazy registration runs (console per-route series on the first request)
// would be a concurrent map read/write — a runtime throw, not a race the
// values could tolerate.
type familySnapshot struct {
	name, help, typ string
	sampleFn        func() []Sample
	series          []*series // sorted by label block
}

// snapshotFamilies copies every family — and each static family's series,
// sorted — under r.mu, returning families sorted by name. SampleFunc and
// value callbacks are invoked by the caller after the lock is released,
// so external sources may themselves register metrics without deadlock.
func (r *Registry) snapshotFamilies() []familySnapshot {
	r.mu.Lock()
	fams := make([]familySnapshot, 0, len(r.families))
	for _, f := range r.families {
		fs := familySnapshot{name: f.name, help: f.help, typ: f.typ, sampleFn: f.sampleFn}
		if f.sampleFn == nil {
			fs.series = make([]*series, 0, len(f.series))
			for _, s := range f.series {
				fs.series = append(fs.series, s)
			}
			sort.Slice(fs.series, func(i, j int) bool { return fs.series[i].labels < fs.series[j].labels })
		}
		fams = append(fams, fs)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WriteTo renders the registry in the Prometheus text exposition format:
// families sorted by name, series within a family sorted by label block,
// histogram buckets in bound order. Deterministic for a fixed registry
// state — two renders with no observations in between are byte-identical.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	for _, f := range r.snapshotFamilies() {
		fmt.Fprintf(cw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.typ)
		if f.sampleFn != nil {
			lines := make([]string, 0, 8)
			for _, smp := range f.sampleFn() {
				lines = append(lines, f.name+labelBlock(smp.Labels, "")+" "+formatValue(smp.Value))
			}
			sort.Strings(lines)
			for _, l := range lines {
				fmt.Fprintln(cw, l)
			}
			continue
		}
		for _, s := range f.series {
			if s.hist != nil {
				writeHistogram(cw, f.name, s)
				continue
			}
			fmt.Fprintf(cw, "%s%s %s\n", f.name, s.labels, formatValue(s.value()))
		}
	}
	err := cw.w.(*bufio.Writer).Flush()
	return cw.n, err
}

// writeHistogram renders one histogram series: cumulative buckets, sum,
// count. The le label is appended after the series' own (sorted) labels.
func writeHistogram(w io.Writer, name string, s *series) {
	h := s.hist
	base := strings.TrimSuffix(strings.TrimPrefix(s.labels, "{"), "}")
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := "+Inf"
		if i < len(h.bounds) {
			bound = formatValue(h.bounds[i])
		}
		le := `le="` + bound + `"`
		block := "{" + le + "}"
		if base != "" {
			block = "{" + base + "," + le + "}"
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, block, cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, h.Count())
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Render returns the text exposition as a byte slice.
func (r *Registry) Render() []byte {
	var b bytes.Buffer
	_, _ = r.WriteTo(&b)
	return b.Bytes()
}

// Snapshot returns every series as "name{labels}" → value, histograms
// expanded into their _bucket/_sum/_count series — the form the Streamer
// diffs and the Collector aggregates.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.snapshotFamilies() {
		if f.sampleFn != nil {
			for _, smp := range f.sampleFn() {
				out[f.name+labelBlock(smp.Labels, "")] = smp.Value
			}
			continue
		}
		for _, s := range f.series {
			if s.hist != nil {
				base := strings.TrimSuffix(strings.TrimPrefix(s.labels, "{"), "}")
				var cum uint64
				for i := range s.hist.counts {
					cum += s.hist.counts[i].Load()
					bound := "+Inf"
					if i < len(s.hist.bounds) {
						bound = formatValue(s.hist.bounds[i])
					}
					le := `le="` + bound + `"`
					block := "{" + le + "}"
					if base != "" {
						block = "{" + base + "," + le + "}"
					}
					out[f.name+"_bucket"+block] = float64(cum)
				}
				out[f.name+"_sum"+s.labels] = s.hist.Sum()
				out[f.name+"_count"+s.labels] = float64(s.hist.Count())
				continue
			}
			out[f.name+s.labels] = s.value()
		}
	}
	return out
}

// ParseText parses a text-exposition body (the subset this package emits:
// one "series value" per line, # comments) into series → value. The
// Collector uses it to fold member scrapes into the federation view.
func ParseText(b []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("telemetry: unparseable line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: bad value in %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// ServeMetrics serves GET /metrics behind the operator secret, gated
// exactly like cloudapi.ServePprof: with no secret configured the metrics
// plane does not exist (404), and a request without the matching
// X-OSDC-Operator header is refused (403). Shared by every binary so all
// four gate metrics identically.
func ServeMetrics(secret string, reg *Registry, w http.ResponseWriter, r *http.Request) {
	if secret == "" {
		serveError(w, http.StatusNotFound, "metrics plane requires an operator secret")
		return
	}
	if subtle.ConstantTimeCompare([]byte(r.Header.Get("X-OSDC-Operator")), []byte(secret)) != 1 {
		serveError(w, http.StatusForbidden, "metrics plane requires X-OSDC-Operator")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if reg != nil {
		_, _ = reg.WriteTo(w)
	}
}

// serveError mirrors the cloudapi operator plane's JSON error shape
// (telemetry sits below cloudapi, so it cannot import it).
func serveError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = fmt.Fprintf(w, "{%q:%q}\n", "error", msg)
}
