package lb

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"osdc/internal/telemetry"
	"osdc/internal/wire"
)

// raceEnabled is set under the race detector, whose sync.Pool drops items
// at random, so allocation bounds do not hold there.
var raceEnabled bool

// echoBackend is a fake console replica that reports its own name, so
// tests can see where each request landed.
func echoBackend(t *testing.T, name string) (*httptest.Server, *int64) {
	t.Helper()
	var hits int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		atomic.AddInt64(&hits, 1)
		fmt.Fprintf(w, "%s:%s %s", name, r.Method, r.URL.RequestURI())
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func get(t *testing.T, lb *httptest.Server, path, token string) (int, string) {
	t.Helper()
	req, _ := http.NewRequest("GET", lb.URL+path, nil)
	if token != "" {
		req.Header.Set("X-Tukey-Session", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestSessionAffinity: requests bearing the same token land on the same
// replica every time; distinct tokens spread over the pool.
func TestSessionAffinity(t *testing.T) {
	a, _ := echoBackend(t, "a")
	b, _ := echoBackend(t, "b")
	c, _ := echoBackend(t, "c")
	pool := NewPool([]string{a.URL, b.URL, c.URL}, nil)
	front := httptest.NewServer(pool)
	defer front.Close()

	// Affinity: one token, ten requests, one backend.
	landed := map[string]bool{}
	for i := 0; i < 10; i++ {
		_, body := get(t, front, "/console/status", "tukey-sess-000042")
		landed[strings.SplitN(body, ":", 2)[0]] = true
	}
	if len(landed) != 1 {
		t.Fatalf("one session landed on %d backends: %v", len(landed), landed)
	}

	// Spread: many tokens should not all hash to one backend.
	landed = map[string]bool{}
	for i := 0; i < 64; i++ {
		_, body := get(t, front, "/console/status", fmt.Sprintf("tukey-sess-%06d", i))
		landed[strings.SplitN(body, ":", 2)[0]] = true
	}
	if len(landed) < 2 {
		t.Fatalf("64 sessions all landed on one backend")
	}
}

// TestTokenlessRoundRobin: requests without a session header rotate over
// the pool instead of hammering one replica with every login.
func TestTokenlessRoundRobin(t *testing.T) {
	a, hitsA := echoBackend(t, "a")
	b, hitsB := echoBackend(t, "b")
	pool := NewPool([]string{a.URL, b.URL}, nil)
	front := httptest.NewServer(pool)
	defer front.Close()

	for i := 0; i < 10; i++ {
		get(t, front, "/login", "")
	}
	if *hitsA != 5 || *hitsB != 5 {
		t.Fatalf("round robin split = %d/%d, want 5/5", *hitsA, *hitsB)
	}
}

// TestFailoverRetry: a dead replica's requests transparently retry on a
// surviving one — the caller sees a 200, not a 502.
func TestFailoverRetry(t *testing.T) {
	a, _ := echoBackend(t, "a")
	b, _ := echoBackend(t, "b")
	pool := NewPool([]string{a.URL, b.URL}, nil)
	front := httptest.NewServer(pool)
	defer front.Close()

	// Find a token that hashes to a, then kill a.
	var tok string
	for i := 0; ; i++ {
		tok = fmt.Sprintf("tukey-sess-%06d", i)
		_, body := get(t, front, "/x", tok)
		if strings.HasPrefix(body, "a:") {
			break
		}
	}
	a.Close()

	code, body := get(t, front, "/console/instances", tok)
	if code != http.StatusOK || !strings.HasPrefix(body, "b:") {
		t.Fatalf("failover request: code=%d body=%q, want 200 from b", code, body)
	}
	if pool.Retries == 0 {
		t.Fatal("retry counter not incremented")
	}
	if h := pool.Healthy(); h != 1 {
		t.Fatalf("healthy = %d after passive mark-down, want 1", h)
	}
	// Bodies are buffered, so POSTs retry too.
	req, _ := http.NewRequest("POST", front.URL+"/console/launch", strings.NewReader(`{"cloud":"adler"}`))
	req.Header.Set("X-Tukey-Session", tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "/console/launch") {
		t.Fatalf("retried POST body = %q", raw)
	}
}

// TestProbeEviction: enough failed health probes remove the backend from
// the pool entirely, and its sessions remap to survivors.
func TestProbeEviction(t *testing.T) {
	a, _ := echoBackend(t, "a")
	b, _ := echoBackend(t, "b")
	pool := NewPool([]string{a.URL, b.URL}, nil)

	if pool.Probe(2, 0) != 0 {
		t.Fatal("healthy sweep evicted something")
	}
	if h := pool.Healthy(); h != 2 {
		t.Fatalf("healthy = %d, want 2", h)
	}

	a.Close()
	if pool.Probe(2, 0) != 0 {
		t.Fatal("evicted after one strike, want two")
	}
	if h := pool.Healthy(); h != 1 {
		t.Fatalf("healthy after first strike = %d, want 1", h)
	}
	if pool.Probe(2, 0) != 1 {
		t.Fatal("second strike did not evict")
	}
	if got := pool.Backends(); len(got) != 1 || got[0] != b.URL {
		t.Fatalf("backends after eviction = %v, want [%s]", got, b.URL)
	}

	// Every session now lands on b.
	front := httptest.NewServer(pool)
	defer front.Close()
	for i := 0; i < 8; i++ {
		code, body := get(t, front, "/y", fmt.Sprintf("tukey-sess-%06d", i))
		if code != http.StatusOK || !strings.HasPrefix(body, "b:") {
			t.Fatalf("post-eviction request %d: code=%d body=%q", i, code, body)
		}
	}
}

// TestProbeRecovery: a replica that comes back is marked up again rather
// than staying black-holed forever.
func TestProbeRecovery(t *testing.T) {
	var down atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			panic(http.ErrAbortHandler)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	pool := NewPool([]string{srv.URL}, nil)

	down.Store(true)
	pool.Probe(0, 0) // evictAfter 0: never evict
	if pool.Healthy() != 0 {
		t.Fatal("dead backend still healthy")
	}
	down.Store(false)
	pool.Probe(0, 0)
	if pool.Healthy() != 1 {
		t.Fatal("recovered backend not marked up")
	}
}

// TestProbeAbandonsHungBackend: a backend whose /healthz never answers
// costs a sweep its deadline, not the client's timeout, sees its probe
// cancelled, and takes the strike a refused probe would.
func TestProbeAbandonsHungBackend(t *testing.T) {
	cancelled := make(chan struct{}, 1)
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		cancelled <- struct{}{}
	}))
	defer hung.Close()
	live, _ := echoBackend(t, "live")
	pool := NewPool([]string{hung.URL, live.URL}, nil)

	start := time.Now()
	pool.Probe(0, 20*time.Millisecond)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("sweep took %v with a hung backend, want about its 20ms deadline", took)
	}
	if h := pool.Healthy(); h != 1 {
		t.Fatalf("healthy = %d, want 1: the hung backend is still up", h)
	}
	if n := atomic.LoadInt64(&pool.ProbeFails); n != 1 {
		t.Fatalf("probe failures = %d, want 1", n)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("the hung backend never saw its probe cancelled")
	}
}

// TestNoBackends: an empty pool answers 502, not a panic.
func TestNoBackends(t *testing.T) {
	pool := NewPool(nil, nil)
	front := httptest.NewServer(pool)
	defer front.Close()
	code, _ := get(t, front, "/x", "tok")
	if code != http.StatusBadGateway {
		t.Fatalf("empty pool code = %d, want 502", code)
	}
	if pool.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", pool.Rejected)
	}
}

// TestMetricsThroughReplicaDeath pins the balancer's health accounting
// through the registry: kill a replica, and the retry, mark-down, probe
// and eviction counters plus the backend gauges all tell the story at
// /metrics.
func TestMetricsThroughReplicaDeath(t *testing.T) {
	a, _ := echoBackend(t, "a")
	b, _ := echoBackend(t, "b")
	pool := NewPool([]string{a.URL, b.URL}, nil)
	reg := telemetry.NewRegistry()
	pool.RegisterMetrics(reg)

	snap := reg.Snapshot()
	if snap["osdc_lb_backends"] != 2 || snap["osdc_lb_backends_healthy"] != 2 {
		t.Fatalf("fresh pool gauges = %v", snap)
	}

	// Find a token pinned to a, then kill a: the proxied request must
	// retry onto b, marking a down exactly once.
	var tok string
	for i := 0; ; i++ {
		tok = fmt.Sprintf("tukey-sess-%06d", i)
		if pool.PickBackend(tok) == a.URL {
			break
		}
	}
	a.Close()
	front := httptest.NewServer(pool)
	defer front.Close()
	if code, body := get(t, front, "/x", tok); code != http.StatusOK || !strings.HasPrefix(body, "b:") {
		t.Fatalf("failover request: code=%d body=%q", code, body)
	}
	snap = reg.Snapshot()
	if snap["osdc_lb_retries_total"] != 1 || snap["osdc_lb_markdowns_total"] != 1 {
		t.Fatalf("post-failover counters = retries %v, markdowns %v",
			snap["osdc_lb_retries_total"], snap["osdc_lb_markdowns_total"])
	}
	if snap["osdc_lb_backends_healthy"] != 1 {
		t.Fatalf("healthy gauge after mark-down = %v", snap["osdc_lb_backends_healthy"])
	}

	// Two failed probes evict the corpse for good.
	pool.Probe(2, 0)
	pool.Probe(2, 0)
	snap = reg.Snapshot()
	if snap["osdc_lb_probe_failures_total"] != 2 {
		t.Fatalf("probe failures = %v, want 2", snap["osdc_lb_probe_failures_total"])
	}
	if snap["osdc_lb_evictions_total"] != 1 || snap["osdc_lb_backends"] != 1 {
		t.Fatalf("post-eviction: evictions %v, backends %v",
			snap["osdc_lb_evictions_total"], snap["osdc_lb_backends"])
	}
	if snap["osdc_lb_rejected_total"] != 0 {
		t.Fatalf("rejected = %v, want 0 (b absorbed everything)", snap["osdc_lb_rejected_total"])
	}
}

// TestOversizedBodyRejected: a body over the replay buffer's bound answers
// 413 without contacting any backend, and one at the bound still proxies.
func TestOversizedBodyRejected(t *testing.T) {
	a, hits := echoBackend(t, "a")
	front := httptest.NewServer(NewPool([]string{a.URL}, nil))
	defer front.Close()

	post := func(n int) int {
		t.Helper()
		resp, err := http.Post(front.URL+"/console/launch", "application/json", strings.NewReader(strings.Repeat("x", n)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(wire.MaxBodyBytes + 1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", code)
	}
	if n := atomic.LoadInt64(hits); n != 0 {
		t.Fatalf("backend saw %d requests for a rejected body, want 0", n)
	}
	if code := post(wire.MaxBodyBytes); code != http.StatusOK {
		t.Fatalf("body at the bound status = %d, want 200", code)
	}
	if n := atomic.LoadInt64(hits); n != 1 {
		t.Fatalf("backend saw %d requests, want 1", n)
	}
}

// TestPoolRelaysStreamFrames: an event stream's frames reach the client as
// the replica flushes them, not when the stream ends or the balancer's
// client gives up on it.
func TestPoolRelaysStreamFrames(t *testing.T) {
	release := make(chan struct{})
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: 1\ndata: {}\n\n")
		w.(http.Flusher).Flush()
		select { // the stream stays open
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer replica.Close()
	front := httptest.NewServer(NewPool([]string{replica.URL}, nil))
	defer front.Close()
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/console/stream", nil)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("no response headers after %v: %v", time.Since(start), err)
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if took := time.Since(start); err != nil || line != "id: 1\n" || took > time.Second {
		t.Fatalf("first frame line = %q, %v after %v; want %q in under 1s", line, err, took, "id: 1\n")
	}
}

// TestProxyHopAllocBytes: relaying a response costs about its own bytes,
// not a fresh copy buffer. 500 GETs of a 1 KB body of known length through
// the balancer over loopback, after 50 to warm the connections and pools,
// allocate under 24 KB each, counting the whole process: client, balancer
// and replica. A fresh 32 KB buffer per response reads about 48 KB.
func TestProxyHopAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	body := strings.Repeat("x", 1024)
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = io.WriteString(w, body)
	}))
	defer replica.Close()
	front := httptest.NewServer(NewPool([]string{replica.URL}, nil))
	defer front.Close()
	client := front.Client()
	get := func() {
		resp, err := client.Get(front.URL + "/console/instances")
		if err != nil {
			t.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n != int64(len(body)) {
			t.Fatalf("proxied GET = %d with %d bytes, want 200 with %d", resp.StatusCode, n, len(body))
		}
	}
	for range 50 {
		get()
	}
	const n = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		get()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / n / 1024
	t.Logf("%.1f KB allocated per proxied request", kb)
	if kb > 24 {
		t.Fatalf("%.1f KB allocated per proxied request, want under 24", kb)
	}
}
