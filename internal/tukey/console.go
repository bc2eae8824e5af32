package tukey

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"osdc/internal/billing"
	"osdc/internal/cloudapi"
	"osdc/internal/datasets"
	"osdc/internal/datastore"
	"osdc/internal/monitor"
	"osdc/internal/telemetry"
	"osdc/internal/wire"
)

// Console is the Tukey Console web application (§5.1): "The core
// functionality of the web application is virtual machine provisioning
// with usage and billing information", plus the optional modules for file
// sharing management and public data set management.
//
// Routes (all JSON; session token in the X-Tukey-Session header except for
// /login):
//
//	POST /login                      {provider, username, secret} → {token}
//	GET  /console/instances          aggregated multi-cloud server list
//	POST /console/launch             {cloud, name, flavor} → server
//	POST /console/terminate          {cloud, id}
//	POST /console/stop               {cloud, id}: shut down, keep allocation
//	GET  /console/usage              current-cycle usage (core-hours)
//	GET  /console/datasets           public dataset catalog (?q= to search)
//	GET  /console/datasets/replicas  per-site dataset placement (?dataset= to filter)
//	POST /console/datasets/stage     {dataset, cloud}: place a replica on a cloud's site
//	GET  /console/status             attached clouds, poller and clock health
//	GET  /console/stream             SSE telemetry feed (when a Streamer is wired)
//
// Each route is served through an interceptor chain (interceptor.go):
// session resolution and rate-limit admission, then the handler.
// The layers keep their state behind the SessionStore and Limiter seams,
// which is what makes a Console replica stateless — point MW at a shared
// (or remote) store and Limiter at a shared limiter and N replicas behave
// as one console.
type Console struct {
	MW      *Middleware
	Biller  *billing.Biller
	Catalog *datasets.Catalog
	// Replication, when set, powers the data-plane routes: replica
	// placement reads and pre-launch dataset staging.
	Replication *datastore.Coordinator
	// UsageMon, when set, contributes per-site sample-error counts to the
	// /console/status operator view alongside the biller's poll errors.
	UsageMon *monitor.UsageMonitor
	// Limiter, when set, is the per-user admission control: every console
	// route charges route-weighted tokens against the caller's federated
	// identifier (for /login, the attempted username) and answers 429 when
	// the bucket is empty. An in-process *RateLimiter and the state
	// plane's RemoteLimiter both satisfy it.
	Limiter Limiter
	// ClockSync, when set, contributes federation clock-skew health to
	// /console/status.
	ClockSync *cloudapi.ClockCoordinator
	// UsageCacheHits, when set, reports per-cloud usage-delta cache hits
	// for /console/status. A closure (not a map) because the counters
	// live on the per-cloud servers and tick between requests.
	UsageCacheHits func() map[string]int64

	// Metrics, when set via RegisterMetrics, receives per-route request
	// counts and latency histograms; nil leaves routes uninstrumented.
	Metrics *telemetry.Registry
	// Stream, when set, serves GET /console/stream: the deterministic
	// SSE telemetry feed (telemetry.Streamer).
	Stream *telemetry.Streamer

	// RateLimited counts requests rejected with 429.
	RateLimited int64

	// routes is the chained routing table, built once on first request
	// (the Console is constructed as a struct literal all over the repo,
	// so there is no constructor to hang this on).
	routesOnce sync.Once
	routes     map[string]http.Handler
}

// localUser maps a federated identity to the local username the biller
// and catalog know: the identifier's local part.
func (c *Console) localUser(id Identity) string {
	local := id.Identifier
	if i := strings.IndexAny(local, "@"); i >= 0 {
		local = local[:i]
	}
	if i := strings.LastIndex(local, "/"); i >= 0 {
		local = local[i+1:]
	}
	return local
}

// invalidSessionKey is the shared rate-limit bucket for requests bearing
// no valid session. Tokens are sequential ("tukey-sess-000042"), so
// guessing must be throttled; one coarse bucket (rather than per-token
// keys, which would be attacker-chosen) bounds the sweep rate without
// letting the sweep grow the key space. The leading NUL keeps it disjoint
// from any federated identifier.
const invalidSessionKey = "\x00invalid-session"

// AdmissionKey is the bucket a session-route request is charged to: the
// identity of a session found and unexpired at now, else the shared
// invalid-session bucket. The console's admit layer and the state plane's
// /state/check both call it, so the rule has one home.
func AdmissionKey(s Session, found bool, now time.Time) string {
	if found && !s.expired(now) {
		return s.Identity.Identifier
	}
	return invalidSessionKey
}

// routeCosts weights each route's rate-limit charge by what it costs the
// federation: a launch provisions a VM across the transport layer, a
// dataset stage schedules a WAN transfer, a status read is a map copy.
// Unlisted routes cost 1. TestRouteCostTable pins this table.
var routeCosts = map[string]float64{
	"POST /console/launch":         10,
	"POST /console/terminate":      5,
	"POST /console/stop":           5,
	"POST /console/datasets/stage": 4,
	"GET /console/instances":       2,
}

// routeCost is the token charge for one request.
func routeCost(method, path string) float64 {
	if cost, ok := routeCosts[method+" "+path]; ok {
		return cost
	}
	return 1
}

// buildRoutes assembles the routing table: every console route behind the
// session chain (admit → enforceSession → handler), /login behind its own
// (parseLogin → rateLimit → handler). Routing happens before any chain
// runs, so an unknown path stays a bare 404 with no session resolution
// and no bucket charge — exactly the monolith's behavior.
func (c *Console) buildRoutes() {
	session := func(h http.HandlerFunc) http.Handler {
		return Chain(h, c.admit, c.enforceSession)
	}
	c.routes = map[string]http.Handler{
		"POST /login":                    Chain(http.HandlerFunc(c.handleLogin), c.parseLogin, c.rateLimit),
		"GET /console/instances":         session(c.handleInstances),
		"POST /console/launch":           session(c.handleLaunch),
		"POST /console/terminate":        session(c.handleTerminate),
		"POST /console/stop":             session(c.handleStop),
		"GET /console/usage":             session(c.handleUsage),
		"GET /console/datasets":          session(c.handleDatasets),
		"GET /console/datasets/replicas": session(c.handleDatasetReplicas),
		"POST /console/datasets/stage":   session(c.handleDatasetStage),
		"GET /console/status":            session(c.handleStatus),
		"GET /console/stream":            session(c.handleStream),
	}
	if c.Metrics != nil {
		for key, h := range c.routes {
			c.routes[key] = c.instrument(key, h)
		}
	}
}

// instrument wraps one route with its request counter and wall-latency
// histogram. The wrapper sits outside the interceptor chain so throttled
// and unauthenticated requests are measured too. The ResponseWriter is
// passed through unwrapped so it advertises exactly the optional
// interfaces it supports — the SSE stream route's http.Flusher check must
// fail fast on a writer that cannot actually flush, not buffer forever
// behind a no-op Flush.
func (c *Console) instrument(key string, h http.Handler) http.Handler {
	requests := c.Metrics.Counter("osdc_console_requests_total",
		"Console requests served, by route.",
		telemetry.Label{Key: "route", Value: key})
	latency := c.Metrics.Histogram("osdc_console_request_seconds",
		"Console request wall latency, by route.", telemetry.LatencyBuckets,
		telemetry.Label{Key: "route", Value: key})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		requests.Inc()
		latency.Observe(time.Since(start).Seconds())
	})
}

// RegisterMetrics attaches reg as the console's registry: per-route
// series are created when the routing table is built, plus the global
// throttle counter here. Call before the first request (route
// instrumentation is latched by routesOnce).
func (c *Console) RegisterMetrics(reg *telemetry.Registry) {
	c.Metrics = reg
	reg.CounterFunc("osdc_console_throttled_total",
		"Console requests rejected with 429 by admission control.",
		func() float64 { return float64(atomic.LoadInt64(&c.RateLimited)) })
}

// ServeHTTP implements http.Handler: pure routing — every other concern
// lives in the per-route interceptor chains.
func (c *Console) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.routesOnce.Do(c.buildRoutes)
	if h, ok := c.routes[r.Method+" "+r.URL.Path]; ok {
		h.ServeHTTP(w, r)
		return
	}
	wire.WriteError(w, http.StatusNotFound, "no route "+r.Method+" "+r.URL.Path)
}

func (c *Console) handleLogin(w http.ResponseWriter, r *http.Request) {
	req, _ := loginFrom(r)
	tok, err := c.MW.Login(Provider(req.Provider), req.Username, req.Secret)
	if err != nil {
		wire.WriteError(w, http.StatusUnauthorized, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"token": tok})
}

func (c *Console) handleInstances(w http.ResponseWriter, r *http.Request) {
	si, _ := sessionFrom(r)
	servers, err := c.MW.listServers(si.id)
	if err != nil {
		wire.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"servers": servers})
}

func (c *Console) handleLaunch(w http.ResponseWriter, r *http.Request) {
	var req struct{ Cloud, Name, Flavor string }
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	si, _ := sessionFrom(r)
	srv, err := c.MW.launchServer(si.id, req.Cloud, req.Name, req.Flavor)
	if err != nil {
		wire.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusAccepted, map[string]interface{}{"server": srv})
}

func (c *Console) handleTerminate(w http.ResponseWriter, r *http.Request) {
	var req struct{ Cloud, ID string }
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	si, _ := sessionFrom(r)
	if err := c.MW.terminateServer(si.id, req.Cloud, req.ID); err != nil {
		wire.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "terminated"})
}

func (c *Console) handleStop(w http.ResponseWriter, r *http.Request) {
	var req struct{ Cloud, ID string }
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	si, _ := sessionFrom(r)
	if err := c.MW.stopServer(si.id, req.Cloud, req.ID); err != nil {
		wire.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "stopping"})
}

func (c *Console) handleUsage(w http.ResponseWriter, r *http.Request) {
	si, _ := sessionFrom(r)
	if c.Biller == nil {
		wire.WriteError(w, http.StatusServiceUnavailable, "billing not configured")
		return
	}
	u := c.Biller.CurrentUsage(c.localUser(si.id))
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"user": u.User, "core_hours": u.CoreHours(),
		"cycle": c.Biller.Cycle(),
	})
}

func (c *Console) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if c.Catalog == nil {
		wire.WriteError(w, http.StatusServiceUnavailable, "catalog not configured")
		return
	}
	q := r.URL.Query().Get("q")
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"datasets": c.Catalog.Search(q)})
}

func (c *Console) handleDatasetReplicas(w http.ResponseWriter, r *http.Request) {
	if c.Replication == nil {
		wire.WriteError(w, http.StatusServiceUnavailable, "replication not configured")
		return
	}
	rows := c.Replication.Placement()
	if want := r.URL.Query().Get("dataset"); want != "" {
		filtered := rows[:0]
		for _, row := range rows {
			if row.Dataset == want {
				filtered = append(filtered, row)
			}
		}
		rows = filtered
	}
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"placement": rows})
}

// handleDatasetStage places a dataset replica on the site that will host
// the user's instances before the launch (§4: compute next to the data),
// so the VM reads it over the LAN instead of the WAN.
func (c *Console) handleDatasetStage(w http.ResponseWriter, r *http.Request) {
	if c.Replication == nil {
		wire.WriteError(w, http.StatusServiceUnavailable, "replication not configured")
		return
	}
	var req struct{ Dataset, Cloud string }
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Dataset == "" || req.Cloud == "" {
		wire.WriteError(w, http.StatusBadRequest, "stage needs a dataset and a cloud")
		return
	}
	st, err := c.Replication.Stage(r.Context(), req.Dataset, req.Cloud)
	if err != nil {
		wire.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	code := http.StatusOK
	if st.State == "staging" {
		code = http.StatusAccepted
	}
	wire.WriteJSON(w, code, st)
}

// handleStatus reports cloud topology — operator data: like every other
// /console/* route this requires a session (it used to be the one
// unauthenticated leak).
func (c *Console) handleStatus(w http.ResponseWriter, r *http.Request) {
	status := map[string]interface{}{"clouds": c.MW.Clouds()}
	// Per-site poller health: which clouds the billing and monitoring
	// sweeps failed to reach, not just that one did.
	if c.Biller != nil {
		status["poll_errors"] = c.Biller.PollErrorsByCloud()
	}
	if c.UsageMon != nil {
		status["sample_errors"] = c.UsageMon.SampleErrorsByCloud()
	}
	// Usage-delta cache health (which clouds answer polls incrementally)
	// and federation clock skew round out the operator view: one request
	// answers "are the pollers, the usage path, and the clocks healthy?".
	if c.UsageCacheHits != nil {
		status["usage_cache_hits"] = c.UsageCacheHits()
	}
	if c.ClockSync != nil {
		status["clock"] = map[string]interface{}{
			"max_skew": c.ClockSync.MaxSkew(),
			"syncs":    c.ClockSync.Syncs(),
		}
	}
	wire.WriteJSON(w, http.StatusOK, status)
}

// handleStream serves the SSE telemetry feed: aggregated metric deltas
// framed by the streamer on its virtual-clock cadence.
func (c *Console) handleStream(w http.ResponseWriter, r *http.Request) {
	if c.Stream == nil {
		wire.WriteError(w, http.StatusServiceUnavailable, "telemetry stream not configured")
		return
	}
	c.Stream.ServeStream(w, r)
}
