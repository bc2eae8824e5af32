// Package lb is the console's front door: an HTTP reverse proxy fanning
// requests over N stateless console replicas.
//
// Placement is a consistent-hash ring keyed by the session token
// (X-Tukey-Session), so one user's requests stick to one replica — with
// the shared state plane any replica *can* serve any session, but affinity
// keeps each replica's HTTP connections and caches warm and makes request
// traces readable. Tokenless requests (logins) round-robin. Ring hashing
// (rather than hash-mod-N) means losing a replica remaps only the sessions
// it owned; everyone else stays put.
//
// Health is tracked two ways: active probes against each backend's
// /healthz, and passive mark-down when a proxied request fails at the
// transport layer (the request is retried on the next healthy backend, so
// a replica dying mid-flight costs the user nothing — their session lives
// in the state plane, not the corpse).
//
// A response relays as the replica wrote it: headers as they are, the
// body through a pooled buffer, and an event stream flushed frame by
// frame. The pool's 30 s client timeout still ends a stream.
package lb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"osdc/internal/fanout"
	"osdc/internal/telemetry"
	"osdc/internal/wire"
)

// vnodes is how many ring points each backend gets. 64 points per backend
// keeps the max/min key-share ratio near 1 for single-digit replica
// counts without making ring rebuilds expensive.
const vnodes = 64

// maxRetries bounds how many distinct backends one request may be tried
// against before the balancer gives up with a 502.
const maxRetries = 3

// backend is one console replica.
type backend struct {
	url  string
	down atomic.Bool
	// fails counts consecutive health-probe failures; Evict threshold.
	fails int
}

// Pool balances requests over console replicas.
type Pool struct {
	client *http.Client

	mu       sync.Mutex
	backends []*backend
	ring     []ringPoint // sorted by hash
	rr       uint64      // round-robin cursor for tokenless requests

	// Retries counts requests that needed a second (or third) backend;
	// Rejected counts requests that ran out of healthy backends.
	Retries  int64
	Rejected int64
	// MarkDowns counts passive mark-downs (a proxied request failed at
	// the transport layer); ProbeFails counts failed health probes;
	// Evictions counts backends removed from the pool for good.
	MarkDowns  int64
	ProbeFails int64
	Evictions  int64
}

type ringPoint struct {
	hash uint32
	b    *backend
}

// NewPool builds a balancer over the given replica base URLs. A nil client
// gets a pooled default sized for many concurrent console requests.
func NewPool(urls []string, client *http.Client) *Pool {
	p := &Pool{client: wire.NewClient(client, 30*time.Second, 64)}
	for _, u := range urls {
		p.backends = append(p.backends, &backend{url: strings.TrimRight(u, "/")})
	}
	p.rebuildRing()
	return p
}

// rebuildRing recomputes the hash ring from the live backend list. Callers
// hold p.mu (or are the constructor).
func (p *Pool) rebuildRing() {
	p.ring = p.ring[:0]
	for _, b := range p.backends {
		for v := 0; v < vnodes; v++ {
			p.ring = append(p.ring, ringPoint{hash: hash32(fmt.Sprintf("%s#%d", b.url, v)), b: b})
		}
	}
	sort.Slice(p.ring, func(i, j int) bool { return p.ring[i].hash < p.ring[j].hash })
}

func hash32(s string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	x := h.Sum32()
	// FNV-1a alone has weak avalanche on its low bytes: session tokens
	// differ only in their trailing digits, and without finalization the
	// whole token population lands in a few narrow bands of the ring,
	// starving some backends entirely. The murmur3 finalizer spreads them.
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// Healthy returns how many backends are currently up.
func (p *Pool) Healthy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, b := range p.backends {
		if !b.down.Load() {
			n++
		}
	}
	return n
}

// Evict permanently removes a backend from the pool (dead-replica
// eviction: after enough failed probes there is no point hashing sessions
// at a corpse — removing it from the ring hands its key range to the
// survivors).
func (p *Pool) Evict(url string) bool {
	url = strings.TrimRight(url, "/")
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, b := range p.backends {
		if b.url == url {
			p.backends = append(p.backends[:i], p.backends[i+1:]...)
			p.rebuildRing()
			return true
		}
	}
	return false
}

// pick returns the preferred backend for a session token plus the ordered
// fallbacks after it (walking the ring), skipping down backends. Tokenless
// requests start from the round-robin cursor instead of a hash.
func (p *Pool) pick(token string) []*backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.backends) == 0 {
		return nil
	}
	// Order backends: ring walk from the token's hash, or round-robin.
	var ordered []*backend
	seen := make(map[*backend]bool, len(p.backends))
	if token != "" && len(p.ring) > 0 {
		h := hash32(token)
		start := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= h })
		for i := 0; i < len(p.ring) && len(ordered) < len(p.backends); i++ {
			b := p.ring[(start+i)%len(p.ring)].b
			if !seen[b] {
				seen[b] = true
				ordered = append(ordered, b)
			}
		}
	} else {
		start := int(p.rr % uint64(len(p.backends)))
		p.rr++
		for i := 0; i < len(p.backends); i++ {
			ordered = append(ordered, p.backends[(start+i)%len(p.backends)])
		}
	}
	// Healthy backends first, marked-down ones as a last resort (they may
	// have recovered before the next probe notices).
	healthy := ordered[:0:len(ordered)]
	var down []*backend
	for _, b := range ordered {
		if b.down.Load() {
			down = append(down, b)
		} else {
			healthy = append(healthy, b)
		}
	}
	return append(healthy, down...)
}

// PickBackend reports which backend URL a session token is currently
// pinned to ("" with an empty pool) — an operator's "where is this user"
// probe; tests use it to kill exactly the replica a session lives on.
func (p *Pool) PickBackend(token string) string {
	bs := p.pick(token)
	if len(bs) == 0 {
		return ""
	}
	return bs[0].url
}

// ServeHTTP proxies one console request, retrying transport-level failures
// on the next backend in session order. The body is buffered so a retry
// can replay it; one over wire.MaxBodyBytes answers 413 before any backend
// is contacted.
func (p *Pool) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes))
		r.Body.Close()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		if err != nil {
			http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	candidates := p.pick(r.Header.Get("X-Tukey-Session"))
	if len(candidates) > maxRetries {
		candidates = candidates[:maxRetries]
	}
	for i, b := range candidates {
		if i > 0 {
			atomic.AddInt64(&p.Retries, 1)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, b.url+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		req.Header = r.Header // the transport only reads it; Do copies it to follow a redirect
		resp, err := p.client.Do(req)
		if err != nil {
			// Transport failure: the replica is gone or wedged. Mark it
			// down (the prober will revive or evict it) and try the next.
			if !b.down.Swap(true) {
				atomic.AddInt64(&p.MarkDowns, 1)
			}
			continue
		}
		// Any HTTP response — including 4xx/5xx — is the console speaking;
		// relay it. Only transport errors mean "try another replica".
		copyResponse(w, resp)
		return
	}
	atomic.AddInt64(&p.Rejected, 1)
	http.Error(w, "no console replica reachable", http.StatusBadGateway)
}

// copyBufs holds the buffers response bodies are relayed through. A plain
// io.Copy hands a body of known length to the server's ReadFrom, whose
// socket falls back to io.Copy with a fresh 32 KB buffer per response.
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// copyResponse relays resp to w: headers unchanged, then the body through
// a pooled buffer. An event stream is flushed after every write, so each
// frame reaches the client as the replica sends it.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	dst := relay{w: w}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		dst.rc = http.NewResponseController(w)
	}
	buf := copyBufs.Get().(*[32 << 10]byte)
	defer copyBufs.Put(buf)
	_, _ = io.CopyBuffer(dst, resp.Body, buf[:])
}

// relay is the writer copyResponse copies into. It hides the response's
// ReadFrom, so io.CopyBuffer uses the pooled buffer, and with rc set it
// flushes each write.
type relay struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (r relay) Write(p []byte) (int, error) {
	n, err := r.w.Write(p)
	if err == nil && r.rc != nil {
		// A writer that cannot flush still relays; a client that has gone
		// fails the next Write.
		_ = r.rc.Flush()
	}
	return n, err
}

// probeWorkers bounds one sweep's concurrent /healthz probes.
const probeWorkers = 8

// Probe runs one health sweep: GET /healthz on every backend, each probe
// cancelled after deadline (<= 0 waits for every answer). A backend that
// answers 200 is marked up (and its failure streak cleared); one that
// does not, or misses the deadline, gets a strike, and evictAfter
// consecutive strikes removes it from the pool entirely (0 = never
// evict). Returns how many backends were evicted this sweep.
func (p *Pool) Probe(evictAfter int, deadline time.Duration) int {
	p.mu.Lock()
	backends := append([]*backend(nil), p.backends...)
	p.mu.Unlock()
	healthy, answered := fanout.Each(context.Background(), probeWorkers, deadline, len(backends), func(ctx context.Context, i int) bool {
		status, _, err := wire.Call(ctx, p.client, http.MethodGet, backends[i].url+"/healthz", "", nil, nil, http.StatusOK)
		return err == nil && status == http.StatusOK
	})
	evicted := 0
	for i, b := range backends {
		p.mu.Lock()
		if answered[i] && healthy[i] {
			b.fails = 0
			b.down.Store(false)
		} else {
			atomic.AddInt64(&p.ProbeFails, 1)
			b.fails++
			b.down.Store(true)
			if evictAfter > 0 && b.fails >= evictAfter {
				p.mu.Unlock()
				if p.Evict(b.url) {
					atomic.AddInt64(&p.Evictions, 1)
					evicted++
				}
				p.mu.Lock()
			}
		}
		p.mu.Unlock()
	}
	return evicted
}

// RegisterMetrics contributes the balancer's health accounting to reg:
// retry/rejection/mark-down/probe/eviction counters plus live backend
// gauges — everything an operator needs to see a replica die and the
// pool absorb it.
func (p *Pool) RegisterMetrics(reg *telemetry.Registry) {
	ctr := func(name, help string, v *int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(atomic.LoadInt64(v)) })
	}
	ctr("osdc_lb_retries_total", "Requests retried on a second (or third) backend.", &p.Retries)
	ctr("osdc_lb_rejected_total", "Requests that ran out of reachable backends (502).", &p.Rejected)
	ctr("osdc_lb_markdowns_total", "Passive backend mark-downs from transport failures.", &p.MarkDowns)
	ctr("osdc_lb_probe_failures_total", "Failed /healthz probes.", &p.ProbeFails)
	ctr("osdc_lb_evictions_total", "Backends evicted from the pool.", &p.Evictions)
	reg.GaugeFunc("osdc_lb_backends", "Backends in the pool, healthy or not.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(len(p.backends))
		})
	reg.GaugeFunc("osdc_lb_backends_healthy", "Backends currently marked up.",
		func() float64 { return float64(p.Healthy()) })
}
