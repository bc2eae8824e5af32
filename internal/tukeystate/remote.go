package tukeystate

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"osdc/internal/tukey"
	"osdc/internal/wire"
)

// DefaultTimeout bounds each state-plane round trip. The state plane is on
// every request's path (token resolution + admission), so a hung state
// server must fail the request quickly, not pin a console handler.
const DefaultTimeout = 5 * time.Second

// RemoteSessionStore is a tukey.SessionStore served by a remote tukeystate
// server — the client side of the shared state plane.
//
// Failure semantics are asymmetric, and deliberately so:
//
//   - Reads fail closed: a Get that cannot reach the plane reports "no such
//     session", turning into a 401 at the console. Serving a request whose
//     session cannot be verified would turn a state-plane outage into an
//     auth bypass.
//   - Writes are best-effort: a Put/Delete that cannot reach the plane is
//     remembered (Err) but does not fail the caller's request — the session
//     write will be superseded by the next sliding-TTL refresh anyway.
type RemoteSessionStore struct {
	base   string
	client *http.Client

	mu      sync.Mutex
	lastErr error
}

// NewRemoteSessionStore builds a client for the tukeystate server at base
// (e.g. "http://state:9200"). A nil client gets a DefaultTimeout one.
func NewRemoteSessionStore(base string, client *http.Client) *RemoteSessionStore {
	return &RemoteSessionStore{base: base, client: wire.NewClient(client, DefaultTimeout, 0)}
}

// post sends one request/response pair, recording transport errors.
func (s *RemoteSessionStore) post(path string, req sessionReq) (sessionResp, error) {
	var resp sessionResp
	err := postJSON(s.client, s.base+path, req, &resp)
	s.record(err)
	return resp, err
}

// record remembers the outcome of the latest state-plane call for Err.
func (s *RemoteSessionStore) record(err error) {
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
}

// Err reports the most recent state-plane failure, nil when the last call
// landed.
func (s *RemoteSessionStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Get implements tukey.SessionStore, failing closed on transport errors.
func (s *RemoteSessionStore) Get(token string) (tukey.Session, bool) {
	resp, err := s.post("/state/sessions/get", sessionReq{Token: token})
	if err != nil || !resp.OK || resp.Session == nil {
		return tukey.Session{}, false
	}
	return *resp.Session, true
}

// Put implements tukey.SessionStore (best-effort; check Err).
func (s *RemoteSessionStore) Put(token string, sess tukey.Session) {
	_, _ = s.post("/state/sessions/put", sessionReq{Token: token, Session: &sess})
}

// Delete implements tukey.SessionStore (best-effort; check Err).
func (s *RemoteSessionStore) Delete(token string) {
	_, _ = s.post("/state/sessions/delete", sessionReq{Token: token})
}

// Count implements tukey.SessionStore; unreachable planes count zero.
func (s *RemoteSessionStore) Count() int {
	resp, err := s.post("/state/sessions/count", sessionReq{})
	if err != nil {
		return 0
	}
	return resp.Count
}

// ExpireBefore implements tukey.SessionStore; unreachable planes reap zero.
func (s *RemoteSessionStore) ExpireBefore(t time.Time) int {
	resp, err := s.post("/state/sessions/expire", sessionReq{Before: &t})
	if err != nil {
		return 0
	}
	return resp.Reaped
}

// RemoteLimiter is a tukey.Limiter served by a remote tukeystate server:
// one admission budget per user across every console replica.
//
// It fails open: if the state plane is unreachable the request is admitted
// and Errors is incremented. Admission control is load protection, not
// auth — a state-plane outage should degrade to "no throttling", not take
// the whole console down with it (the session reads have already failed
// closed by then anyway).
type RemoteLimiter struct {
	base   string
	client *http.Client

	// Errors counts state-plane round trips that failed (and were admitted
	// fail-open). Read with atomic.LoadInt64.
	Errors int64
}

// NewRemoteLimiter builds a client for the tukeystate server at base. A
// nil client gets a DefaultTimeout one.
func NewRemoteLimiter(base string, client *http.Client) *RemoteLimiter {
	return &RemoteLimiter{base: base, client: wire.NewClient(client, DefaultTimeout, 0)}
}

// AllowN implements tukey.Limiter, failing open on transport errors.
func (l *RemoteLimiter) AllowN(key string, cost float64) bool {
	var resp allowResp
	if err := postJSON(l.client, l.base+"/state/ratelimit/allow", allowReq{Key: key, Cost: cost}, &resp); err != nil {
		atomic.AddInt64(&l.Errors, 1)
		return true
	}
	return resp.OK
}

// Gate implements tukey.SessionGate. When store is a RemoteSessionStore on
// this limiter's plane, one /state/check trip resolves the token and
// charges the bucket tukey.AdmissionKey picks; any other store is left to
// the console's Get-then-AllowN path (handled false). A failed trip keeps
// both halves' failure semantics — no session (closed) but admitted
// (open) — and is counted on both error counters: the store's Err and
// this limiter's Errors.
func (l *RemoteLimiter) Gate(store tukey.SessionStore, token string, cost float64, now time.Time) (s tukey.Session, found, admitted, handled bool) {
	rs, ok := store.(*RemoteSessionStore)
	if !ok || rs.base != l.base {
		return tukey.Session{}, false, false, false
	}
	var resp checkResp
	err := postJSON(l.client, l.base+"/state/check", checkReq{Token: token, Cost: cost, Now: now}, &resp)
	rs.record(err)
	if err != nil {
		atomic.AddInt64(&l.Errors, 1)
		return tukey.Session{}, false, true, true
	}
	if !resp.OK || resp.Session == nil {
		return tukey.Session{}, false, resp.Admitted, true
	}
	return *resp.Session, true, resp.Admitted, true
}

// postJSON is one POST round trip with JSON bodies both ways.
func postJSON(client *http.Client, url string, req, resp interface{}) error {
	status, _, err := wire.Call(context.Background(), client, http.MethodPost, url, "", req, resp, http.StatusOK)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("tukeystate: %s: status %d", url, status)
	}
	return err
}
