package tukeystate

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"osdc/internal/tukey"
)

// storeBackends is the parity table: every SessionStore implementation is
// driven through the same scenarios. The remote backend wraps the
// in-memory one behind a real HTTP server, so these tests also pin the
// wire format — Local and Remote must be indistinguishable through the
// interface.
func storeBackends(t *testing.T) map[string]func(t *testing.T) tukey.SessionStore {
	return map[string]func(t *testing.T) tukey.SessionStore{
		"memory": func(t *testing.T) tukey.SessionStore {
			return tukey.NewMemorySessionStore()
		},
		"file": func(t *testing.T) tukey.SessionStore {
			s, err := tukey.NewFileSessionStore(filepath.Join(t.TempDir(), "sessions.json"))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"remote": func(t *testing.T) tukey.SessionStore {
			srv := httptest.NewServer(NewServer(tukey.NewMemorySessionStore(), nil))
			t.Cleanup(srv.Close)
			return NewRemoteSessionStore(srv.URL, nil)
		},
	}
}

func forEachBackend(t *testing.T, run func(t *testing.T, store tukey.SessionStore)) {
	for name, mk := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			run(t, mk(t))
		})
	}
}

func TestStoreParityRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, store tukey.SessionStore) {
		exp := time.Date(2012, 11, 1, 12, 0, 0, 0, time.UTC)
		want := tukey.Session{
			Identity: tukey.Identity{Provider: tukey.Shibboleth, Identifier: "alice@uchicago.edu"},
			Expires:  exp,
		}
		store.Put("tok-1", want)
		got, ok := store.Get("tok-1")
		if !ok {
			t.Fatal("stored session not found")
		}
		if got.Identity != want.Identity {
			t.Fatalf("identity = %+v, want %+v", got.Identity, want.Identity)
		}
		// JSON round-trips normalize time zones and drop the monotonic
		// reading: compare instants, not representations.
		if !got.Expires.Equal(want.Expires) {
			t.Fatalf("expires = %v, want %v", got.Expires, want.Expires)
		}
		if _, ok := store.Get("tok-absent"); ok {
			t.Fatal("absent token found")
		}
		if n := store.Count(); n != 1 {
			t.Fatalf("count = %d, want 1", n)
		}
	})
}

func TestStoreParityOverwriteAndDelete(t *testing.T) {
	forEachBackend(t, func(t *testing.T, store tukey.SessionStore) {
		a := tukey.Session{Identity: tukey.Identity{Identifier: "a@x"}}
		b := tukey.Session{Identity: tukey.Identity{Identifier: "b@x"}}
		store.Put("tok", a)
		store.Put("tok", b)
		if got, _ := store.Get("tok"); got.Identity.Identifier != "b@x" {
			t.Fatalf("overwrite lost: got %q", got.Identity.Identifier)
		}
		if n := store.Count(); n != 1 {
			t.Fatalf("count after overwrite = %d, want 1", n)
		}
		store.Delete("tok")
		if _, ok := store.Get("tok"); ok {
			t.Fatal("deleted token still present")
		}
		store.Delete("tok") // absent delete is a no-op on every backend
		if n := store.Count(); n != 0 {
			t.Fatalf("count after delete = %d, want 0", n)
		}
	})
}

func TestStoreParityExpireBefore(t *testing.T) {
	forEachBackend(t, func(t *testing.T, store tukey.SessionStore) {
		t0 := time.Date(2012, 11, 1, 12, 0, 0, 0, time.UTC)
		store.Put("dead", tukey.Session{Identity: tukey.Identity{Identifier: "d@x"}, Expires: t0.Add(time.Minute)})
		store.Put("live", tukey.Session{Identity: tukey.Identity{Identifier: "l@x"}, Expires: t0.Add(time.Hour)})
		store.Put("forever", tukey.Session{Identity: tukey.Identity{Identifier: "f@x"}}) // zero Expires: never reaped
		if n := store.ExpireBefore(t0.Add(30 * time.Minute)); n != 1 {
			t.Fatalf("reaped = %d, want 1", n)
		}
		if _, ok := store.Get("dead"); ok {
			t.Fatal("expired session survived sweep")
		}
		if _, ok := store.Get("live"); !ok {
			t.Fatal("live session reaped")
		}
		if _, ok := store.Get("forever"); !ok {
			t.Fatal("no-expiry session reaped")
		}
		if n := store.Count(); n != 2 {
			t.Fatalf("count after sweep = %d, want 2", n)
		}
	})
}

// TestStoreParityConcurrent hammers every backend with concurrent puts,
// gets and deletes under -race: the interface contract includes "safe for
// concurrent use", remote or not.
func TestStoreParityConcurrent(t *testing.T) {
	forEachBackend(t, func(t *testing.T, store tukey.SessionStore) {
		const workers, perWorker = 8, 25
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					tok := token(w, i)
					store.Put(tok, tukey.Session{Identity: tukey.Identity{Identifier: "u@x"}})
					store.Get(tok)
					if i%2 == 1 {
						store.Delete(tok)
					}
				}
			}(w)
		}
		wg.Wait()
		// Each worker leaves its even-numbered tokens behind.
		want := workers * (perWorker + 1) / 2
		if n := store.Count(); n != want {
			t.Fatalf("count after concurrent churn = %d, want %d", n, want)
		}
	})
}

func token(w, i int) string {
	return "tok-" + string(rune('a'+w)) + "-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
}

// TestLimiterParity drives the in-process RateLimiter and the RemoteLimiter
// (wrapping an identical RateLimiter behind a real server) through the same
// deterministic sequence: rate 0 means buckets never refill, so admissions
// are a pure function of the call sequence and must match exactly.
func TestLimiterParity(t *testing.T) {
	mkLocal := func(t *testing.T) tukey.Limiter { return tukey.NewRateLimiter(0, 5) }
	mkRemote := func(t *testing.T) tukey.Limiter {
		srv := httptest.NewServer(NewServer(nil, tukey.NewRateLimiter(0, 5)))
		t.Cleanup(srv.Close)
		return NewRemoteLimiter(srv.URL, nil)
	}
	type call struct {
		key  string
		cost float64
	}
	calls := []call{
		{"alice", 1}, {"alice", 2}, {"alice", 2}, // 5 tokens spent
		{"alice", 1},   // bucket empty → deny
		{"bob", 5},     // independent bucket, full charge
		{"bob", 1},     // empty → deny
		{"carol", 10},  // clamped to burst → admit, empties bucket
		{"carol", 1},   // deny
		{"alice", 0.5}, // cost raised to 1 → deny (still empty)
	}
	runSeq := func(l tukey.Limiter) []bool {
		out := make([]bool, len(calls))
		for i, c := range calls {
			out[i] = l.AllowN(c.key, c.cost)
		}
		return out
	}
	local := runSeq(mkLocal(t))
	remote := runSeq(mkRemote(t))
	want := []bool{true, true, true, false, true, false, true, false, false}
	for i := range calls {
		if local[i] != want[i] {
			t.Fatalf("local call %d (%+v) = %v, want %v", i, calls[i], local[i], want[i])
		}
		if remote[i] != want[i] {
			t.Fatalf("remote call %d (%+v) = %v, want %v — remote diverges from local", i, calls[i], remote[i], want[i])
		}
	}
}

// TestRemoteFailureSemantics pins the failure asymmetry: session reads
// fail closed (an unreachable plane is an invalid session, not an auth
// bypass), limiter calls fail open (an unreachable plane stops throttling,
// not the console).
func TestRemoteFailureSemantics(t *testing.T) {
	srv := httptest.NewServer(NewServer(tukey.NewMemorySessionStore(), tukey.NewRateLimiter(0, 1)))
	store := NewRemoteSessionStore(srv.URL, nil)
	limiter := NewRemoteLimiter(srv.URL, nil)

	store.Put("tok", tukey.Session{Identity: tukey.Identity{Identifier: "a@x"}})
	if _, ok := store.Get("tok"); !ok {
		t.Fatal("session not stored while plane up")
	}
	if err := store.Err(); err != nil {
		t.Fatalf("Err while plane up: %v", err)
	}
	if s, found, admitted, handled := limiter.Gate(store, "tok", 1, time.Now()); !handled || !found ||
		!admitted || s.Identity.Identifier != "a@x" {
		t.Fatalf("Gate while plane up = (%+v, found %v, admitted %v, handled %v)", s, found, admitted, handled)
	}

	srv.Close() // the plane goes away

	if _, ok := store.Get("tok"); ok {
		t.Fatal("Get succeeded against a dead state plane (must fail closed)")
	}
	if err := store.Err(); err == nil {
		t.Fatal("Err nil after failed round trip")
	}
	if !limiter.AllowN("anyone", 1) {
		t.Fatal("limiter denied against a dead state plane (must fail open)")
	}
	if limiter.Errors == 0 {
		t.Fatal("limiter error counter not incremented")
	}

	// The combined trip keeps both halves' semantics: no session (closed),
	// admitted (open), and the failure lands on both error counters.
	fresh := NewRemoteSessionStore(srv.URL, nil)
	errsBefore := limiter.Errors
	_, found, admitted, handled := limiter.Gate(fresh, "tok", 1, time.Now())
	if !handled || found || !admitted {
		t.Fatalf("Gate against a dead plane = (found %v, admitted %v, handled %v), want (false, true, true)",
			found, admitted, handled)
	}
	if fresh.Err() == nil {
		t.Fatal("store Err nil after a failed Gate")
	}
	if d := limiter.Errors - errsBefore; d != 1 {
		t.Fatalf("limiter errors rose by %d after a failed Gate, want 1", d)
	}
}

// TestGateDeclinesOtherPlanes lists the pairings that must take the
// console's two-step path: the gate declines (handled false) without a
// trip, or the limiter is no gate at all, and a console request then makes
// one trip per remote half.
func TestGateDeclinesOtherPlanes(t *testing.T) {
	planeA := NewServer(tukey.NewMemorySessionStore(), tukey.NewRateLimiter(0, 5))
	planeB := NewServer(tukey.NewMemorySessionStore(), tukey.NewRateLimiter(0, 5))
	srvA, srvB := httptest.NewServer(planeA), httptest.NewServer(planeB)
	defer srvA.Close()
	defer srvB.Close()
	trips := func() int64 { return planeA.requests.Load() + planeB.requests.Load() }

	cases := []struct {
		name    string
		store   tukey.SessionStore
		limiter tukey.Limiter
		trips   int64 // per console request: Get and AllowN, where remote
	}{
		{"store and limiter on different planes", NewRemoteSessionStore(srvA.URL, nil), NewRemoteLimiter(srvB.URL, nil), 2},
		{"in-process limiter", NewRemoteSessionStore(srvA.URL, nil), tukey.NewRateLimiter(0, 5), 1},
		{"non-remote store", tukey.NewMemorySessionStore(), NewRemoteLimiter(srvA.URL, nil), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := trips()
			if g, ok := tc.limiter.(tukey.SessionGate); ok {
				if _, _, _, handled := g.Gate(tc.store, "tok", 1, time.Now()); handled {
					t.Fatal("Gate handled a pairing it cannot serve in one trip")
				}
			}
			if n := trips() - before; n != 0 {
				t.Fatalf("a declined Gate made %d state-plane requests, want 0", n)
			}

			mw := tukey.NewMiddleware()
			mw.SetSessionStore(tc.store)
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("GET", "/console/status", nil)
			req.Header.Set("X-Tukey-Session", "tukey-sess-guess")
			(&tukey.Console{MW: mw, Limiter: tc.limiter}).ServeHTTP(rec, req)
			if rec.Code != http.StatusUnauthorized {
				t.Fatalf("bad-token status = %d, want 401", rec.Code)
			}
			if n := trips() - before; n != tc.trips {
				t.Fatalf("console request made %d state-plane requests, want %d", n, tc.trips)
			}
		})
	}
}
