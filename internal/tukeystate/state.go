// Package tukeystate is the console's shared state plane: an HTTP service
// that serves one SessionStore and one rate limiter to N stateless console
// replicas, plus the remote clients the replicas use to reach it.
//
// The console refactor (interceptor chains over the SessionStore/Limiter
// seams) made every piece of per-request console state live behind two
// small interfaces; this package puts those interfaces on the wire. A
// replica with a RemoteSessionStore and a RemoteLimiter holds no session
// or admission state of its own — kill it and the next request lands on a
// sibling with every session and every bucket intact. Parity tests pin the
// remote clients to the in-memory backends: Local and Remote must be
// byte-identical through the interface.
package tukeystate

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"osdc/internal/telemetry"
	"osdc/internal/tukey"
)

// Wire types. Session expiry crosses as RFC3339; JSON round-trips drop
// Go's monotonic clock reading, which is why parity tests compare with
// time.Time.Equal, not ==.

type sessionReq struct {
	Token   string         `json:"token"`
	Session *tukey.Session `json:"session,omitempty"`
	Before  *time.Time     `json:"before,omitempty"`
}

type sessionResp struct {
	Session *tukey.Session `json:"session,omitempty"`
	OK      bool           `json:"ok"`
	Count   int            `json:"count,omitempty"`
	Reaped  int            `json:"reaped,omitempty"`
}

type allowReq struct {
	Key  string  `json:"key"`
	Cost float64 `json:"cost"`
}

type allowResp struct {
	OK bool `json:"ok"`
}

// checkReq is one console request's admission: the token it bears, the
// route's cost, and the replica's clock reading expiry is judged at.
type checkReq struct {
	Token string    `json:"token"`
	Cost  float64   `json:"cost"`
	Now   time.Time `json:"now"`
}

type checkResp struct {
	Session  *tukey.Session `json:"session,omitempty"`
	OK       bool           `json:"ok"`
	Admitted bool           `json:"admitted"`
}

// Server serves a SessionStore and a Limiter over HTTP. The store carries
// the sessions every replica shares; the limiter carries the per-user
// admission budgets, so a user throttled on one replica is throttled on
// all of them (one budget, not one per replica).
type Server struct {
	store   tukey.SessionStore
	limiter tukey.Limiter
	mux     *http.ServeMux

	// OperatorSecret gates GET /metrics exactly like the other planes'
	// operator surfaces: 404 when empty, 403 without the header. Assign
	// it any time before the first /metrics request.
	OperatorSecret string
	// Metrics is the server's telemetry registry, created by NewServer;
	// callers may register more series onto it before serving.
	Metrics *telemetry.Registry

	requests atomic.Int64
}

// NewServer wraps store and limiter (either may be nil: a nil limiter
// answers every /state/ratelimit/allow and /state/check with admit, a nil
// store 404s the session routes and /state/check).
func NewServer(store tukey.SessionStore, limiter tukey.Limiter) *Server {
	s := &Server{store: store, limiter: limiter, mux: http.NewServeMux()}
	s.Metrics = telemetry.NewRegistry()
	s.Metrics.CounterFunc("osdc_state_requests_total",
		"State-plane requests served (sessions, rate limits, checks, health).",
		func() float64 { return float64(s.requests.Load()) })
	if store != nil {
		s.mux.HandleFunc("/state/sessions/get", s.handleGet)
		s.mux.HandleFunc("/state/sessions/put", s.handlePut)
		s.mux.HandleFunc("/state/sessions/delete", s.handleDelete)
		s.mux.HandleFunc("/state/sessions/count", s.handleCount)
		s.mux.HandleFunc("/state/sessions/expire", s.handleExpire)
		s.mux.HandleFunc("/state/check", s.handleCheck)
	}
	s.mux.HandleFunc("/state/ratelimit/allow", s.handleAllow)
	s.mux.HandleFunc("/state/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		telemetry.ServeMetrics(s.OperatorSecret, s.Metrics, w, r)
	})
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/metrics" {
		s.requests.Add(1)
	}
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return false
	}
	return true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	var req sessionReq
	if !decode(w, r, &req) {
		return
	}
	sess, ok := s.store.Get(req.Token)
	resp := sessionResp{OK: ok}
	if ok {
		resp.Session = &sess
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	var req sessionReq
	if !decode(w, r, &req) {
		return
	}
	if req.Session == nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "put needs a session"})
		return
	}
	s.store.Put(req.Token, *req.Session)
	writeJSON(w, http.StatusOK, sessionResp{OK: true})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req sessionReq
	if !decode(w, r, &req) {
		return
	}
	s.store.Delete(req.Token)
	writeJSON(w, http.StatusOK, sessionResp{OK: true})
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, sessionResp{OK: true, Count: s.store.Count()})
}

func (s *Server) handleExpire(w http.ResponseWriter, r *http.Request) {
	var req sessionReq
	if !decode(w, r, &req) {
		return
	}
	if req.Before == nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "expire needs a bound"})
		return
	}
	writeJSON(w, http.StatusOK, sessionResp{OK: true, Reaped: s.store.ExpireBefore(*req.Before)})
}

func (s *Server) handleAllow(w http.ResponseWriter, r *http.Request) {
	var req allowReq
	if !decode(w, r, &req) {
		return
	}
	ok := true
	if s.limiter != nil {
		ok = s.limiter.AllowN(req.Key, req.Cost)
	}
	writeJSON(w, http.StatusOK, allowResp{OK: ok})
}

// handleCheck is a console request's whole admission in one trip: look
// the token up, then charge the bucket tukey.AdmissionKey picks for what
// was found — the same rule, and the same order, as the replica's own
// Get followed by AllowN.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req checkReq
	if !decode(w, r, &req) {
		return
	}
	sess, ok := s.store.Get(req.Token)
	resp := checkResp{OK: ok, Admitted: true}
	if ok {
		resp.Session = &sess
	}
	if s.limiter != nil {
		resp.Admitted = s.limiter.AllowN(tukey.AdmissionKey(sess, ok, req.Now), req.Cost)
	}
	writeJSON(w, http.StatusOK, resp)
}
