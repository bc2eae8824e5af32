package tukey

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"
)

// Interceptor wraps an http.Handler with one console concern. The console
// used to be a monolithic switch doing auth, admission control and routing
// in one body; decomposing it into chained interceptors (the conduit-bmc
// gateway shape) makes each layer's state dependency explicit — only the
// admit and rate-limit layers touch the SessionStore and the Limiter —
// which is what lets N stateless replicas share both through the
// tukeystate plane.
type Interceptor func(http.Handler) http.Handler

// Chain composes interceptors around h. The first interceptor is the
// outermost layer: Chain(h, a, b) runs a, then b, then h.
func Chain(h http.Handler, layers ...Interceptor) http.Handler {
	for i := len(layers) - 1; i >= 0; i-- {
		h = layers[i](h)
	}
	return h
}

// ctxKey namespaces the console's request-context values.
type ctxKey int

const (
	sessionCtxKey ctxKey = iota
	loginCtxKey
)

// sessionInfo is what the admit layer learned about a request: the resolved
// identity, or the fact that the token was missing/invalid/expired.
type sessionInfo struct {
	id Identity
	ok bool
}

// loginRequest is the parsed /login body, decoded once by the parseLogin
// layer and consumed by both the rate-limit layer (the attempted username
// is the charge key) and the login handler.
type loginRequest struct {
	Provider string `json:"provider"`
	Username string `json:"username"`
	Secret   string `json:"secret"`
}

// sessionFrom extracts the admit layer's verdict from the request context.
func sessionFrom(r *http.Request) (sessionInfo, bool) {
	si, ok := r.Context().Value(sessionCtxKey).(sessionInfo)
	return si, ok
}

// loginFrom extracts the parsed login body from the request context.
func loginFrom(r *http.Request) (*loginRequest, bool) {
	lr, ok := r.Context().Value(loginCtxKey).(*loginRequest)
	return lr, ok
}

// admit resolves the X-Tukey-Session token into the request context and
// charges the route's weighted cost against the bucket AdmissionKey picks:
// the identity of a live session, else the shared invalid-session bucket.
// An exhausted bucket answers 429 and stops the chain. A request without
// a live session is not rejected here: enforceSession writes its 401 after
// the charge, so token guessing is throttled exactly as it was in the
// monolithic console.
//
// When the Limiter is a SessionGate that can serve the middleware's store
// (a replica's store and limiter on one state plane), lookup and charge
// are one round trip; otherwise they are a Get and an AllowN. Either way
// the session is settled (reaped or slid) at the same now the bucket was
// chosen at.
func (c *Console) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		token := r.Header.Get("X-Tukey-Session")
		cost := routeCost(r.Method, r.URL.Path)
		store, ttl := c.MW.sessions()
		now := c.MW.wallNow()
		s, found, admitted := c.resolve(store, token, cost, now)
		id, ok := settle(store, ttl, token, s, found, now)
		if !admitted {
			c.reject(w, AdmissionKey(s, found, now))
			return
		}
		ctx := context.WithValue(r.Context(), sessionCtxKey, sessionInfo{id: id, ok: ok})
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// resolve looks token up in store and charges cost to its admission
// bucket, through the Limiter's SessionGate when it handles this store.
func (c *Console) resolve(store SessionStore, token string, cost float64, now time.Time) (s Session, found, admitted bool) {
	if g, ok := c.Limiter.(SessionGate); ok {
		if s, found, admitted, handled := g.Gate(store, token, cost, now); handled {
			return s, found, admitted
		}
	}
	s, found = store.Get(token)
	admitted = c.Limiter == nil || c.Limiter.AllowN(AdmissionKey(s, found, now), cost)
	return s, found, admitted
}

// rateLimit charges /login's cost against the attempted username's bucket.
// An exhausted bucket answers 429 and stops the chain.
func (c *Console) rateLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lr, _ := loginFrom(r)
		if !c.allow(w, lr.Username, routeCost(r.Method, r.URL.Path)) {
			return
		}
		next.ServeHTTP(w, r)
	})
}

// enforceSession rejects requests the admit layer could not resolve. It
// runs after the charge so a rejected request has already been charged to
// the invalid-session bucket.
func (c *Console) enforceSession(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if si, ok := sessionFrom(r); !ok || !si.ok {
			writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "invalid or missing session"})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// parseLogin decodes the /login body into the context. A malformed body is
// a 400 before any bucket is charged — the charge key is the attempted
// username, which a body that does not parse cannot assert.
func (c *Console) parseLogin(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req loginRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		ctx := context.WithValue(r.Context(), loginCtxKey, &req)
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// allow charges cost rate-limit tokens for key, answering 429 when the
// caller's bucket is exhausted. With no Limiter configured everything
// passes.
func (c *Console) allow(w http.ResponseWriter, key string, cost float64) bool {
	if c.Limiter == nil || c.Limiter.AllowN(key, cost) {
		return true
	}
	c.reject(w, key)
	return false
}

// reject answers 429 for an exhausted bucket.
func (c *Console) reject(w http.ResponseWriter, key string) {
	atomic.AddInt64(&c.RateLimited, 1)
	writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "rate limit exceeded for " + key})
}
