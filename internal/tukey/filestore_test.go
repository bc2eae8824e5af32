package tukey

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFileSessionStoreRoundTrip: sessions put by one store instance are
// visible to a fresh instance opened on the same file — the console
// restart that no longer logs everyone out.
func TestFileSessionStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.json")
	s1, err := NewFileSessionStore(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Session{
		Identity: Identity{Provider: Shibboleth, Identifier: "demo@uchicago.edu"},
		Expires:  time.Now().Add(12 * time.Hour).Round(0),
	}
	s1.Put("tok-1", want)
	s1.Put("tok-2", Session{Identity: Identity{Provider: OpenID, Identifier: "https://id/x"}})
	s1.Delete("tok-2")
	if err := s1.Err(); err != nil {
		t.Fatalf("persist error: %v", err)
	}

	s2, err := NewFileSessionStore(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("tok-1")
	if !ok {
		t.Fatal("tok-1 lost across restart")
	}
	if got.Identity != want.Identity || !got.Expires.Equal(want.Expires) {
		t.Fatalf("restored session %+v, want %+v", got, want)
	}
	if _, ok := s2.Get("tok-2"); ok {
		t.Fatal("deleted token resurrected by restart")
	}
	if s2.Count() != 1 {
		t.Fatalf("count = %d, want 1", s2.Count())
	}
}

// TestFileSessionStoreTTLExpiry: ExpireBefore reaps and persists, so an
// expired session stays gone after a restart.
func TestFileSessionStoreTTLExpiry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.json")
	s, err := NewFileSessionStore(path)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	s.Put("live", Session{Identity: Identity{Provider: Shibboleth, Identifier: "a@x"}, Expires: now.Add(time.Hour)})
	s.Put("dead", Session{Identity: Identity{Provider: Shibboleth, Identifier: "b@x"}, Expires: now.Add(-time.Hour)})
	s.Put("forever", Session{Identity: Identity{Provider: Shibboleth, Identifier: "c@x"}})

	if n := s.ExpireBefore(now); n != 1 {
		t.Fatalf("reaped %d sessions, want 1", n)
	}
	reopened, err := NewFileSessionStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reopened.Get("dead"); ok {
		t.Fatal("expired session survived the restart")
	}
	for _, tok := range []string{"live", "forever"} {
		if _, ok := reopened.Get(tok); !ok {
			t.Fatalf("session %q lost", tok)
		}
	}
}

// TestFileSessionStoreCorruptFile: a mangled session file is a loud
// construction error, not a silent empty store.
func TestFileSessionStoreCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileSessionStore(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt file error = %v", err)
	}
}

// TestFileStoreHeaderCheck: every file goes through the one header check.
// Only a log that opens with the current version header loads (a header
// alone is an empty store); anything else — the retired whole-file
// snapshot form, somebody else's JSON, a future version — is refused as
// corrupt and left byte for byte as it was found, never compacted over.
func TestFileStoreHeaderCheck(t *testing.T) {
	for _, tc := range []struct {
		name, content string
		corrupt       bool
	}{
		{"v1 snapshot", `{"version":1,"sessions":{"tukey-sess-000001":{"Identity":{"Provider":"shibboleth","Identifier":"alice@uchicago.edu"},"Expires":"0001-01-01T00:00:00Z"}}}`, true},
		{"foreign JSON object", `{"name":"not a session file","version":7,"port":8080}`, true},
		{"header only", "{\"version\":2}\n", false},
		{"future version", "{\"version\":3}\n", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sessions.json")
			if err := os.WriteFile(path, []byte(tc.content), 0o600); err != nil {
				t.Fatal(err)
			}
			s, err := NewFileSessionStore(path)
			if !tc.corrupt {
				if err != nil {
					t.Fatal(err)
				}
				if n := s.Count(); n != 0 {
					t.Fatalf("header-only log holds %d sessions, want 0", n)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("error = %v, want corrupt", err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != tc.content {
				t.Fatalf("refused file was rewritten:\nbefore: %q\nafter : %q", tc.content, after)
			}
		})
	}
}

// TestFileSessionStoreNoTempLitter: the atomic-rename dance leaves no temp
// files behind.
func TestFileSessionStoreNoTempLitter(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileSessionStore(filepath.Join(dir, "sessions.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Put("tok", Session{Identity: Identity{Provider: Shibboleth, Identifier: "a@x"}})
		s.Delete("tok")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".sessions-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestFileSessionStoreConcurrentMutations hammers the store from many
// goroutines (run under -race): mutations interleave with persistence
// happening outside the session lock, and the final file must reflect the
// final map — the generation check forbids a stale snapshot landing last.
func TestFileSessionStoreConcurrentMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.json")
	s, err := NewFileSessionStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tok := fmt.Sprintf("tok-%d-%d", w, i)
				s.Put(tok, Session{Identity: Identity{Provider: Shibboleth, Identifier: tok}})
				s.Get(tok)
				if i%3 == 0 {
					s.Delete(tok)
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatalf("persist error under concurrency: %v", err)
	}
	reopened, err := NewFileSessionStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Count() != s.Count() {
		t.Fatalf("file holds %d sessions, memory holds %d", reopened.Count(), s.Count())
	}
}

// TestMiddlewareSessionsSurviveRestart is the store working where it
// matters: a token minted by one Middleware resolves through a second one
// sharing the file, exactly like a restarted console process.
func TestMiddlewareSessionsSurviveRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.json")
	store1, err := NewFileSessionStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewMiddleware()
	m1.SetSessionStore(store1)
	idp := NewShibboleth("uchicago.edu")
	idp.Enroll("demo", "pw")
	m1.RegisterIdP(idp)
	m1.GrantCredentials("demo@uchicago.edu", CloudCredential{Cloud: "c", AuthUser: "demo"})
	tok, err := m1.Login(Shibboleth, "demo", "pw")
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new middleware over a fresh store on the file.
	store2, err := NewFileSessionStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMiddleware()
	m2.SetSessionStore(store2)
	id, ok := m2.identityFor(tok)
	if !ok {
		t.Fatal("session did not survive the restart")
	}
	if id.Identifier != "demo@uchicago.edu" {
		t.Fatalf("restored identity %+v", id)
	}
}
