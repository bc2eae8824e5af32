package sharing

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"osdc/internal/sim"
)

func newStore(t *testing.T, users ...string) (*sim.Engine, *Store) {
	t.Helper()
	e := sim.NewEngine(8)
	s := NewStore(e)
	for _, u := range users {
		s.AddUser(u)
	}
	return e, s
}

func dropNow(e *sim.Engine, d *DropDir, owner, path string, content []byte) {
	d.Drop(owner, path, content)
	e.RunFor(20) // past a scan tick
}

func TestDropDaemonPropagatesOnTick(t *testing.T) {
	e, s := newStore(t, "alice")
	d := NewDropDir(e, s, 10)
	d.Drop("alice", "/share/alice/data.csv", []byte("1,2,3"))
	if _, ok := s.File("/share/alice/data.csv"); ok {
		t.Fatal("file visible before daemon scan")
	}
	e.RunFor(11)
	f, ok := s.File("/share/alice/data.csv")
	if !ok {
		t.Fatal("file not propagated after scan")
	}
	if f.Owner != "alice" || f.Size != 5 {
		t.Fatalf("record = %+v", f)
	}
	if d.Propagated != 1 {
		t.Fatalf("Propagated = %d", d.Propagated)
	}
}

func TestOwnerAlwaysReads(t *testing.T) {
	e, s := newStore(t, "alice", "bob")
	d := NewDropDir(e, s, 10)
	dropNow(e, d, "alice", "/share/a", []byte("x"))
	if !s.CanRead("alice", "/share/a") {
		t.Fatal("owner cannot read own file")
	}
	if s.CanRead("bob", "/share/a") {
		t.Fatal("unshared file readable by stranger")
	}
}

func TestCollectionGrantToUser(t *testing.T) {
	e, s := newStore(t, "alice", "bob")
	d := NewDropDir(e, s, 10)
	dropNow(e, d, "alice", "/share/genome.vcf", []byte("v"))
	coll, err := s.NewCollection("alice", "t2d-release")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddFileToCollection("alice", coll.ID, "/share/genome.vcf"); err != nil {
		t.Fatal(err)
	}
	if err := s.Grant("alice", coll.ID, "user:bob", PermRead); err != nil {
		t.Fatal(err)
	}
	if !s.CanRead("bob", "/share/genome.vcf") {
		t.Fatal("grantee cannot read")
	}
	if err := s.Grant("alice", coll.ID, "group:consortium", PermRead); err == nil {
		t.Fatal("group principal accepted")
	}
}

func TestOnlyOwnerGrants(t *testing.T) {
	_, s := newStore(t, "alice", "mallory")
	coll, _ := s.NewCollection("alice", "c")
	if err := s.Grant("mallory", coll.ID, "user:mallory", PermWrite); err == nil {
		t.Fatal("non-owner granted permissions")
	}
}

// --- WebDAV ---

func davServer(t *testing.T) (*sim.Engine, *Store, *DropDir, *httptest.Server) {
	e, s := newStore(t, "alice", "bob")
	d := NewDropDir(e, s, 10)
	srv := httptest.NewServer(&WebDAV{Store: s})
	t.Cleanup(srv.Close)
	return e, s, d, srv
}

func davReq(t *testing.T, method, url, user, pass string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if user != "" {
		req.SetBasicAuth(user, pass)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestWebDAVRequiresAuth(t *testing.T) {
	_, _, _, srv := davServer(t)
	resp := davReq(t, "GET", srv.URL+"/share/x", "", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("no WWW-Authenticate challenge")
	}
}

func TestWebDAVGetOwnFile(t *testing.T) {
	e, _, d, srv := davServer(t)
	dropNow(e, d, "alice", "/share/alice/hello.txt", []byte("hello webdav"))
	resp := davReq(t, "GET", srv.URL+"/share/alice/hello.txt", "alice", "alice")
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(body) != "hello webdav" {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
}

func TestWebDAVForbiddenWithoutGrant(t *testing.T) {
	e, _, d, srv := davServer(t)
	dropNow(e, d, "alice", "/share/alice/private", []byte("p"))
	resp := davReq(t, "GET", srv.URL+"/share/alice/private", "bob", "bob")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", resp.StatusCode)
	}
}

func TestWebDAVPropfindListsReadable(t *testing.T) {
	e, s, d, srv := davServer(t)
	dropNow(e, d, "alice", "/share/alice/a.txt", []byte("aaa"))
	dropNow(e, d, "bob", "/share/bob/b.txt", []byte("b"))
	coll, _ := s.NewCollection("alice", "pub")
	if err := s.AddFileToCollection("alice", coll.ID, "/share/alice/a.txt"); err != nil {
		t.Fatal(err)
	}
	if err := s.Grant("alice", coll.ID, "user:bob", PermRead); err != nil {
		t.Fatal(err)
	}
	resp := davReq(t, "PROPFIND", srv.URL+"/", "bob", "bob")
	defer resp.Body.Close()
	if resp.StatusCode != 207 {
		t.Fatalf("status = %d, want 207 Multi-Status", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	if !strings.Contains(text, "/share/alice/a.txt") || !strings.Contains(text, "/share/bob/b.txt") {
		t.Fatalf("PROPFIND missing entries: %s", text)
	}
	if !strings.Contains(text, "multistatus") {
		t.Fatal("not a multistatus response")
	}
}

func TestWebDAVOptionsAdvertisesDAV(t *testing.T) {
	_, _, _, srv := davServer(t)
	resp := davReq(t, "OPTIONS", srv.URL+"/", "alice", "alice")
	defer resp.Body.Close()
	if resp.Header.Get("DAV") != "1" {
		t.Fatal("no DAV header")
	}
}

func TestWebDAVCustomAuth(t *testing.T) {
	e, s := newStore(t, "alice")
	_ = e
	srv := httptest.NewServer(&WebDAV{Store: s, Auth: func(u, p string) bool {
		return u == "alice" && p == "s3cret"
	}})
	defer srv.Close()
	resp := davReq(t, "OPTIONS", srv.URL+"/", "alice", "wrong")
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad password accepted: %d", resp.StatusCode)
	}
	resp = davReq(t, "OPTIONS", srv.URL+"/", "alice", "s3cret")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good password rejected: %d", resp.StatusCode)
	}
}
