package cloudapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"osdc/internal/datastore"
	"osdc/internal/iaas"
	"osdc/internal/sim"
	"osdc/internal/telemetry"
	"osdc/internal/wire"
)

// Server exposes one cloud over HTTP the way a real OSDC site does: the
// cloud's *native* API (OpenStack JSON or EC2 query/XML, per its stack) for
// tenant operations, plus a small JSON operator plane under /cloudapi/ for
// the pieces the native dialects never carried — usage sampling for the
// billing and monitoring pollers, quota administration and the clock.
//
// One Server per cloud is the unit of federation: tukey-server's
// -remote-clouds mode gives each its own listener and engine, and every
// service reaches it only through Remote.
type Server struct {
	local  *Local
	native http.HandlerFunc // serveNova or serveEC2, per the cloud's stack
	// Clock, when set, serves the clock plane under /cloudapi/clock: GET
	// reads the site engine's virtual time, POST publishes a sync target
	// (follow mode only). Nil means the site exposes no clock (the routes
	// 404), which is the pre-clock-plane contract.
	Clock ClockPlane
	// Datasets, when set, serves this site's dataset store under
	// /cloudapi/datasets (list/get/put-replica/delete-replica). Nil means
	// the site exposes no data plane (the routes 404).
	Datasets datastore.API
	// OperatorSecret, when non-empty, gates every mutating operator-plane
	// request (POST/DELETE under /cloudapi/): callers must present it in
	// the X-OSDC-Operator header or get 403. Reads stay open — the planes
	// carry no tenant data — and the native tenant dialects are untouched.
	// It also unlocks the /debug/pprof/ profiling plane and the /metrics
	// telemetry plane (absent without a secret, 403 without the header).
	OperatorSecret string

	// Metrics is the server's telemetry registry, served at GET /metrics
	// behind the operator secret. NewServer seeds it with the server's own
	// series; site wiring adds engine and kernel metrics.
	Metrics *telemetry.Registry

	// UsageCacheHits counts usage requests answered from the coalescing
	// cache: biller and monitor polling the same tick should pay for one
	// snapshot encode, not two.
	UsageCacheHits atomic.Int64
	// UsageCacheResets counts recomputes that invalidated stale cache
	// entries — how often the usage rev moved between polls.
	UsageCacheResets atomic.Int64

	// usageMu serializes usage computation so concurrent same-rev readers
	// coalesce: the second caller blocks until the first has encoded the
	// response, then serves the cached bytes. usageCache maps a request's
	// usageKey to the encoded body, valid while the cloud's usage rev
	// still equals the one it was computed at.
	usageMu    sync.Mutex
	usageCache map[usageKey]usageCacheEntry
}

// usageKey names one usage response: the full snapshot (no ?since), or
// the delta since a parsed rev, so 5, 05 and +5 share one entry.
type usageKey struct {
	full  bool
	since int64
}

// usageCacheEntry is one coalesced usage response: the encoded JSON body
// and the usage rev it was computed at.
type usageCacheEntry struct {
	rev  int64
	body []byte
}

// NewServer builds the per-cloud server, picking the native dialect handler
// from the cloud's stack.
func NewServer(c *iaas.Cloud) *Server {
	s := &Server{local: NewLocal(c), Metrics: telemetry.NewRegistry()}
	switch c.Stack {
	case "openstack":
		s.native = s.serveNova
	case "eucalyptus":
		s.native = s.serveEC2
	default:
		panic("cloudapi: unsupported stack " + c.Stack)
	}
	cloud := telemetry.Label{Key: "cloud", Value: c.Name}
	s.Metrics.CounterFunc("osdc_usage_cache_hits_total",
		"Usage responses served from the coalescing cache.",
		func() float64 { return float64(s.UsageCacheHits.Load()) }, cloud)
	s.Metrics.CounterFunc("osdc_usage_cache_resets_total",
		"Usage cache invalidations (rev moved between polls).",
		func() float64 { return float64(s.UsageCacheResets.Load()) }, cloud)
	return s
}

// meta is the /cloudapi/meta discovery document.
type meta struct {
	Name  string `json:"name"`
	Stack string `json:"stack"`
	Site  string `json:"site"`
}

// quotaRequest is the /cloudapi/quota wire form.
type quotaRequest struct {
	User         string `json:"user"`
	MaxInstances int    `json:"max_instances"`
	MaxCores     int    `json:"max_cores"`
}

// clockSyncRequest is the POST /cloudapi/clock wire form: the target
// virtual time in seconds.
type clockSyncRequest struct {
	Target float64 `json:"target"`
}

// serveUsage answers GET /cloudapi/usage[?since=R]. Responses are
// coalesced: the encoded body is cached under the parsed since value and
// served verbatim while the cloud's usage rev is unchanged, so the biller
// and the monitor hitting the same tick cost one snapshot walk and one
// encode. The mutex is held across the compute deliberately — a
// concurrent same-rev reader waits and then hits the cache instead of
// recomputing.
func (s *Server) serveUsage(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("since")
	key := usageKey{full: raw == ""}
	if !key.full {
		var err error
		key.since, err = strconv.ParseInt(raw, 10, 64)
		if err != nil {
			wire.WriteError(w, http.StatusBadRequest, "cloudapi: bad usage since "+strconv.Quote(raw))
			return
		}
	}
	s.usageMu.Lock()
	defer s.usageMu.Unlock()
	rev := s.local.C.UsageRev()
	if e, ok := s.usageCache[key]; ok && e.rev == rev {
		s.UsageCacheHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(e.body)
		return
	}
	var buf bytes.Buffer
	var computedAt int64
	if key.full {
		u, _ := s.local.Usage()
		computedAt = u.Rev
		_ = json.NewEncoder(&buf).Encode(u)
	} else {
		d, err := s.local.UsageSince(r.Context(), key.since)
		if err != nil {
			wire.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		computedAt = d.Rev
		_ = json.NewEncoder(&buf).Encode(d)
	}
	if s.usageCache == nil {
		s.usageCache = make(map[usageKey]usageCacheEntry)
	}
	// Drop entries from older revs while we hold the lock: the cache only
	// ever holds the handful of since values the current pollers use.
	dropped := false
	for k, e := range s.usageCache {
		if e.rev != computedAt {
			delete(s.usageCache, k)
			dropped = true
		}
	}
	if dropped {
		s.UsageCacheResets.Add(1)
	}
	s.usageCache[key] = usageCacheEntry{rev: computedAt, body: buf.Bytes()}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// pprofMux routes the runtime profiling endpoints; built once, shared by
// every gated server.
var pprofMux = func() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}()

// ServePprof serves /debug/pprof/* behind wire.OperatorGate. Shared by
// cloudapi.Server and tukey-server so both binaries gate profiling
// identically.
func ServePprof(secret string, w http.ResponseWriter, r *http.Request) {
	if wire.OperatorGate(secret, "profiling", w, r) {
		pprofMux.ServeHTTP(w, r)
	}
}

// ServeHTTP implements http.Handler: /cloudapi/* is the operator plane,
// everything else passes through to the native dialect.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
		ServePprof(s.OperatorSecret, w, r)
		return
	}
	if r.URL.Path == "/metrics" {
		telemetry.ServeMetrics(s.OperatorSecret, s.Metrics, w, r)
		return
	}
	if !strings.HasPrefix(r.URL.Path, "/cloudapi/") {
		s.native(w, r)
		return
	}
	// Operator-plane auth: mutating the planes (clock targets, quotas,
	// dataset replicas) is an operator action; with a shared secret
	// configured, unauthenticated writes get 403 before any route runs.
	if s.OperatorSecret != "" && r.Method != http.MethodGet && !wire.OperatorOK(s.OperatorSecret, r) {
		wire.WriteError(w, http.StatusForbidden, "operator plane requires X-OSDC-Operator")
		return
	}
	if strings.HasPrefix(r.URL.Path, "/cloudapi/datasets") {
		if s.Datasets == nil {
			wire.WriteError(w, http.StatusNotFound, "site exposes no datasets plane")
			return
		}
		datastore.ServePlane(s.Datasets, w, r)
		return
	}
	switch {
	case r.URL.Path == "/cloudapi/meta" && r.Method == http.MethodGet:
		wire.WriteJSON(w, http.StatusOK, meta{Name: s.local.C.Name, Stack: s.local.C.Stack, Site: s.local.C.Site})

	case r.URL.Path == "/cloudapi/usage" && r.Method == http.MethodGet:
		s.serveUsage(w, r)

	case r.URL.Path == "/cloudapi/clock" && r.Method == http.MethodGet:
		if s.Clock == nil {
			wire.WriteError(w, http.StatusNotFound, "site exposes no clock plane")
			return
		}
		wire.WriteJSON(w, http.StatusOK, s.Clock.ClockStatus())

	case r.URL.Path == "/cloudapi/clock" && r.Method == http.MethodPost:
		if s.Clock == nil {
			wire.WriteError(w, http.StatusNotFound, "site exposes no clock plane")
			return
		}
		var req clockSyncRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			wire.WriteError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
		if req.Target < 0 {
			wire.WriteError(w, http.StatusBadRequest, "negative clock target")
			return
		}
		if err := s.Clock.SyncTo(sim.Time(req.Target)); err != nil {
			// A free-running site rejects targets; the coordinator treats
			// the conflict as "this site does not follow".
			wire.WriteError(w, http.StatusConflict, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)

	case r.URL.Path == "/cloudapi/quota" && r.Method == http.MethodPost:
		var req quotaRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			wire.WriteError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
		if err := s.local.SetQuota(req.User, iaas.Quota{MaxInstances: req.MaxInstances, MaxCores: req.MaxCores}); err != nil {
			wire.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)

	default:
		wire.WriteError(w, http.StatusNotFound, "no operator route "+r.Method+" "+r.URL.Path)
	}
}
