package tukey

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMemorySessionStoreCRUD(t *testing.T) {
	s := NewMemorySessionStore()
	id := Identity{Provider: Shibboleth, Identifier: "alice@uchicago.edu"}
	s.Put("tok-1", Session{Identity: id})
	got, ok := s.Get("tok-1")
	if !ok || got.Identity != id {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := s.Get("tok-2"); ok {
		t.Fatal("absent token found")
	}
	if s.Count() != 1 {
		t.Fatalf("count = %d", s.Count())
	}
	s.Delete("tok-1")
	if _, ok := s.Get("tok-1"); ok {
		t.Fatal("deleted token still resolves")
	}
	s.Delete("tok-1") // absent delete is a no-op
}

func TestMemorySessionStoreExpireBefore(t *testing.T) {
	s := NewMemorySessionStore()
	base := time.Unix(1_350_000_000, 0)
	s.Put("eternal", Session{}) // zero expiry never reaped
	s.Put("old", Session{Expires: base.Add(time.Minute)})
	s.Put("fresh", Session{Expires: base.Add(time.Hour)})
	if n := s.ExpireBefore(base.Add(30 * time.Minute)); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	if _, ok := s.Get("old"); ok {
		t.Fatal("expired session survived")
	}
	for _, tok := range []string{"eternal", "fresh"} {
		if _, ok := s.Get(tok); !ok {
			t.Fatalf("%s reaped prematurely", tok)
		}
	}
}

// countingStore wraps the memory store to prove the middleware resolves
// every session through the interface, not a private map.
type countingStore struct {
	*MemorySessionStore
	mu   sync.Mutex
	gets int
}

func (c *countingStore) Get(token string) (Session, bool) {
	c.mu.Lock()
	c.gets++
	c.mu.Unlock()
	return c.MemorySessionStore.Get(token)
}

func (c *countingStore) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gets
}

// TestMiddlewareUsesInjectedStore swaps the store before traffic and
// checks logins land in it and lookups come from it — the seam a shared
// cross-replica store will plug into.
func TestMiddlewareUsesInjectedStore(t *testing.T) {
	r := newRig(t)
	store := &countingStore{MemorySessionStore: NewMemorySessionStore()}
	r.mw.SetSessionStore(store)

	tok, err := r.mw.Login(Shibboleth, "alice", "pw1")
	if err != nil {
		t.Fatal(err)
	}
	if store.Count() != 1 {
		t.Fatalf("injected store holds %d sessions, want 1", store.Count())
	}
	if _, ok := r.mw.identityFor(tok); !ok {
		t.Fatal("session in injected store rejected")
	}
	if store.gets == 0 {
		t.Fatal("identityFor bypassed the injected store")
	}

	// A second middleware sharing the same store sees the session — the
	// multi-replica scenario.
	mw2 := NewMiddleware()
	mw2.SetSessionStore(store)
	if _, ok := mw2.identityFor(tok); !ok {
		t.Fatal("replica sharing the store rejected the session")
	}
}

// TestConsoleResolvesSessionOncePerRequest pins the request path's session
// cost: the auth layer's lookup is the only SessionStore.Get a console
// request makes — on a replica each Get is a state-plane round trip — so
// the server routes must act on the identity already in the context, not
// resolve the token again.
func TestConsoleResolvesSessionOncePerRequest(t *testing.T) {
	r, srv := consoleRig(t)
	store := &countingStore{MemorySessionStore: NewMemorySessionStore()}
	r.mw.SetSessionStore(store)
	tok := consoleLogin(t, srv)

	// $ID in a body is the server launched by the first step.
	id := ""
	steps := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/console/launch", `{"cloud":"adler","name":"vm","flavor":"m1.small"}`, http.StatusAccepted},
		{"GET", "/console/instances", "", http.StatusOK},
		{"POST", "/console/stop", `{"cloud":"adler","id":"$ID"}`, http.StatusOK},
		{"POST", "/console/terminate", `{"cloud":"adler","id":"$ID"}`, http.StatusOK},
	}
	for _, st := range steps {
		before := store.count()
		resp := consoleDo(t, srv, st.method, st.path, tok, strings.Replace(st.body, "$ID", id, 1))
		if resp.StatusCode != st.want {
			t.Fatalf("%s status = %d, want %d", st.path, resp.StatusCode, st.want)
		}
		if st.path == "/console/launch" {
			var out struct {
				Server TaggedServer `json:"server"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			id = out.Server.ID
		}
		resp.Body.Close()
		if got := store.count() - before; got != 1 {
			t.Errorf("%s made %d SessionStore.Get calls, want exactly 1", st.path, got)
		}
	}
}

func TestSessionStoreConcurrent(t *testing.T) {
	s := NewMemorySessionStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tok := fmt.Sprintf("tok-%d-%d", g, i)
				s.Put(tok, Session{Expires: time.Unix(int64(i), 0)})
				s.Get(tok)
				s.Count()
				s.ExpireBefore(time.Unix(25, 0))
			}
		}()
	}
	wg.Wait()
}
