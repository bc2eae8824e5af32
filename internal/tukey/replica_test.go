package tukey

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// putCountingStore wraps a SessionStore and counts Puts — the observable for
// the sliding-TTL write-elision guard.
type putCountingStore struct {
	SessionStore
	puts int
}

func (c *putCountingStore) Put(token string, s Session) {
	c.puts++
	c.SessionStore.Put(token, s)
}

// TestSlidingTTLSurvivesSharedSweep is the shared-state-plane TTL
// regression: a session actively used on replica A must not be reaped by
// an expiry sweep (SessionCount → ExpireBefore) running on replica B
// against the shared store. Before sliding expiry, the session's Expires
// was fixed at login time, so B's sweep at login+TTL killed sessions A had
// served seconds earlier.
func TestSlidingTTLSurvivesSharedSweep(t *testing.T) {
	r := newRig(t)
	clock := time.Unix(1_350_000_000, 0)
	r.mw.now = func() time.Time { return clock }
	r.mw.SetSessionTTL(30 * time.Minute)
	store := &putCountingStore{SessionStore: NewMemorySessionStore()}
	r.mw.SetSessionStore(store)
	replB := r.mw.Replica(nil, "b-") // shares store and clock

	tok, err := r.mw.Login(Shibboleth, "alice", "pw1")
	if err != nil {
		t.Fatal(err)
	}
	if store.puts != 1 {
		t.Fatalf("puts after login = %d, want 1", store.puts)
	}

	// Touch soon after login: under ttl/8 of lifetime consumed, the
	// refresh write is elided — replicas must not turn every request into
	// a write against the shared store.
	clock = clock.Add(time.Minute)
	if _, ok := r.mw.identityFor(tok); !ok {
		t.Fatal("fresh session rejected on A")
	}
	if store.puts != 1 {
		t.Fatalf("puts after early touch = %d, want 1 (refresh should be elided)", store.puts)
	}

	// Touch at +20m: past the elision guard, the expiry slides to +50m.
	clock = clock.Add(19 * time.Minute)
	if _, ok := r.mw.identityFor(tok); !ok {
		t.Fatal("active session rejected on A")
	}
	if store.puts != 2 {
		t.Fatalf("puts after sliding refresh = %d, want 2", store.puts)
	}

	// +35m: past the login-time expiry. Replica B's sweep runs against the
	// shared store — the refreshed session must survive it.
	clock = clock.Add(15 * time.Minute)
	if n := replB.SessionCount(); n != 1 {
		t.Fatalf("replica B reaped an active session: count = %d, want 1", n)
	}
	if _, ok := replB.identityFor(tok); !ok {
		t.Fatal("session touched on A rejected on B after B's sweep")
	}

	// B's touch at +35m slid the expiry again, to +65m. Idle past that:
	// now it really is dead, on both replicas.
	clock = clock.Add(31 * time.Minute)
	if _, ok := r.mw.identityFor(tok); ok {
		t.Fatal("idle session accepted past slid expiry")
	}
	if n := replB.SessionCount(); n != 0 {
		t.Fatalf("count after true expiry = %d, want 0", n)
	}
}

// TestReplicaTokensShareStoreWithoutColliding: two replicas share one
// store; each has an independent token counter, so without per-replica
// prefixes both would mint "tukey-sess-000001" and the second login would
// silently overwrite (and hijack) the first session.
func TestReplicaTokensShareStoreWithoutColliding(t *testing.T) {
	r := newRig(t)
	replB := r.mw.Replica(nil, "b-")

	tokA, err := r.mw.Login(Shibboleth, "alice", "pw1")
	if err != nil {
		t.Fatal(err)
	}
	tokB, err := replB.Login(Shibboleth, "alice", "pw1")
	if err != nil {
		t.Fatal(err)
	}
	if tokA == tokB {
		t.Fatalf("replicas minted the same token %q for independent logins", tokA)
	}
	if !strings.HasPrefix(tokB, "tukey-sess-b-") {
		t.Fatalf("replica token = %q, want tukey-sess-b- prefix", tokB)
	}
	// Cross-replica resolution: a token minted on A is valid on B (the
	// whole point of the shared store) and vice versa.
	if id, ok := replB.identityFor(tokA); !ok || id.Identifier != "alice@uchicago.edu" {
		t.Fatalf("token minted on A not valid on B: ok=%v id=%v", ok, id)
	}
	if id, ok := r.mw.identityFor(tokB); !ok || id.Identifier != "alice@uchicago.edu" {
		t.Fatalf("token minted on B not valid on A: ok=%v id=%v", ok, id)
	}
	if n := r.mw.SessionCount(); n != 2 {
		t.Fatalf("shared store session count = %d, want 2", n)
	}
}

// TestChainOrder pins interceptor composition: the first layer passed to
// Chain is outermost, and a layer that writes a response stops the chain.
func TestChainOrder(t *testing.T) {
	var order []string
	layer := func(name string) Interceptor {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		order = append(order, "handler")
	}), layer("auth"), layer("limit"))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	if got := strings.Join(order, ","); got != "auth,limit,handler" {
		t.Fatalf("chain order = %s, want auth,limit,handler", got)
	}

	order = nil
	stop := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			order = append(order, "stop")
			w.WriteHeader(http.StatusTooManyRequests)
		})
	}
	h = Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		order = append(order, "handler")
	}), layer("auth"), stop)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if got := strings.Join(order, ","); got != "auth,stop" {
		t.Fatalf("stopped chain order = %s, want auth,stop", got)
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("stopped chain status = %d, want 429", rec.Code)
	}
}

// TestFileStoreCompactsOnLoad: the append log grows with mutations, but a
// reopen replays and compacts it back to a header plus one record per live
// session.
func TestFileStoreCompactsOnLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.json")
	s, err := NewFileSessionStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// Churn: 50 puts, 40 deletes → 90 log records, 10 live sessions.
	for i := 0; i < 50; i++ {
		s.Put(tokenN(i), Session{Identity: Identity{Identifier: "u@x"}})
	}
	for i := 0; i < 40; i++ {
		s.Delete(tokenN(i))
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if lines := countLines(t, path); lines != 1+90 {
		t.Fatalf("log before compaction has %d lines, want 91", lines)
	}

	re, err := NewFileSessionStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := re.Count(); n != 10 {
		t.Fatalf("reloaded count = %d, want 10", n)
	}
	if lines := countLines(t, path); lines != 1+10 {
		t.Fatalf("log after compaction has %d lines, want 11", lines)
	}
}

// TestFileStoreExpireRecordReplays: an expiry sweep is one log record, and
// replaying it on load reaps the same sessions.
func TestFileStoreExpireRecordReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.json")
	s, err := NewFileSessionStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1_350_000_000, 0)
	s.Put("live", Session{Identity: Identity{Identifier: "a@x"}, Expires: t0.Add(time.Hour)})
	s.Put("dead", Session{Identity: Identity{Identifier: "b@x"}, Expires: t0.Add(time.Minute)})
	if n := s.ExpireBefore(t0.Add(30 * time.Minute)); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	re, err := NewFileSessionStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Get("dead"); ok {
		t.Fatal("expired session resurrected by log replay")
	}
	if _, ok := re.Get("live"); !ok {
		t.Fatal("live session lost in log replay")
	}
}

func tokenN(i int) string {
	return "tukey-sess-" + strings.Repeat("0", 3) + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) > 0 {
			n++
		}
	}
	return n
}
