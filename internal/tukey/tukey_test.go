package tukey

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// rig wires a Shibboleth IdP, an OpenID IdP, an OpenStack cloud (adler) and
// a Eucalyptus cloud (sullivan) behind one middleware — the Figure 1 stack.
type rig struct {
	e        *sim.Engine
	mw       *Middleware
	adler    *iaas.Cloud
	sullivan *iaas.Cloud
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.NewEngine(12)
	adler := iaas.NewCloud(e, "adler", "openstack", "chicago-kenwood")
	adler.AddRack("a", 4)
	adler.SetQuota("alice-adler", iaas.Quota{MaxInstances: 10, MaxCores: 100})
	sullivan := iaas.NewCloud(e, "sullivan", "eucalyptus", "chicago-nu")
	sullivan.AddRack("s", 4)
	sullivan.SetQuota("alice-euca", iaas.Quota{MaxInstances: 10, MaxCores: 100})

	novaSrv := httptest.NewServer(cloudapi.NewServer(adler))
	t.Cleanup(novaSrv.Close)
	eucaSrv := httptest.NewServer(cloudapi.NewServer(sullivan))
	t.Cleanup(eucaSrv.Close)

	shib := NewShibboleth("uchicago.edu")
	shib.Enroll("alice", "pw1")
	oid := NewOpenID("https://id.opensciencedatacloud.org")
	oid.Enroll("bob", "pw2")

	mw := NewMiddleware()
	mw.RegisterIdP(shib)
	mw.RegisterIdP(oid)
	mw.AttachCloud(CloudConfig{API: cloudapi.NewRemote("adler", "openstack", novaSrv.URL, nil)})
	mw.AttachCloud(CloudConfig{API: cloudapi.NewRemote("sullivan", "eucalyptus", eucaSrv.URL, nil)})
	mw.GrantCredentials("alice@uchicago.edu",
		CloudCredential{Cloud: "adler", AuthUser: "alice-adler"},
		CloudCredential{Cloud: "sullivan", AuthUser: "alice-euca"},
	)
	return &rig{e: e, mw: mw, adler: adler, sullivan: sullivan}
}

func TestLoginShibboleth(t *testing.T) {
	r := newRig(t)
	tok, err := r.mw.Login(Shibboleth, "alice", "pw1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tok, "tukey-sess-") {
		t.Fatalf("token = %q", tok)
	}
	if n := r.mw.SessionCount(); n != 1 {
		t.Fatalf("%d sessions after one login, want 1", n)
	}
}

func TestLoginWrongPassword(t *testing.T) {
	r := newRig(t)
	if _, err := r.mw.Login(Shibboleth, "alice", "wrong"); err == nil {
		t.Fatal("bad password accepted")
	}
	if n := r.mw.SessionCount(); n != 0 {
		t.Fatalf("%d sessions after a refused login, want 0", n)
	}
}

func TestLoginWithoutOSDCAccount(t *testing.T) {
	r := newRig(t)
	// bob authenticates via OpenID but has no cloud credentials.
	if _, err := r.mw.Login(OpenID, "bob", "pw2"); err == nil {
		t.Fatal("login without credentials accepted")
	}
}

func TestLaunchAndAggregateAcrossDialects(t *testing.T) {
	r := newRig(t)
	tok, err := r.mw.Login(Shibboleth, "alice", "pw1")
	if err != nil {
		t.Fatal(err)
	}
	ident, _ := r.mw.identityFor(tok)
	// Launch one VM on each cloud through the canonical API.
	if _, err := r.mw.launchServer(ident, "adler", "vm-os", "m1.large"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mw.launchServer(ident, "sullivan", "vm-euca", "m1.large"); err != nil {
		t.Fatal(err)
	}
	servers, err := r.mw.listServers(ident)
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 2 {
		t.Fatalf("aggregated %d servers, want 2", len(servers))
	}
	byCloud := map[string]TaggedServer{}
	for _, s := range servers {
		byCloud[s.Cloud] = s
	}
	// Both dialects reshaped into the same (OpenStack-format) status.
	if byCloud["adler"].Status != "BUILD" {
		t.Fatalf("adler status = %q", byCloud["adler"].Status)
	}
	if byCloud["sullivan"].Status != "BUILD" {
		t.Fatalf("sullivan status = %q (EC2 'pending' should map to BUILD)", byCloud["sullivan"].Status)
	}
	if r.mw.Translations < 3 {
		t.Fatalf("translations = %d", r.mw.Translations)
	}
}

func TestTerminateBothDialects(t *testing.T) {
	r := newRig(t)
	tok, _ := r.mw.Login(Shibboleth, "alice", "pw1")
	ident, _ := r.mw.identityFor(tok)
	a, err := r.mw.launchServer(ident, "adler", "x", "m1.small")
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.mw.launchServer(ident, "sullivan", "y", "m1.small")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mw.terminateServer(ident, "adler", a.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.mw.terminateServer(ident, "sullivan", s.ID); err != nil {
		t.Fatal(err)
	}
	servers, err := r.mw.listServers(ident)
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 0 {
		t.Fatalf("servers after terminate = %v", servers)
	}
}

func TestQuotaErrorsSurfaceThroughMiddleware(t *testing.T) {
	r := newRig(t)
	r.adler.SetQuota("alice-adler", iaas.Quota{MaxInstances: 1, MaxCores: 8})
	tok, _ := r.mw.Login(Shibboleth, "alice", "pw1")
	ident, _ := r.mw.identityFor(tok)
	if _, err := r.mw.launchServer(ident, "adler", "a", "m1.small"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mw.launchServer(ident, "adler", "b", "m1.small"); err == nil {
		t.Fatal("quota violation not surfaced")
	}
}

func TestInvalidSessionRejected(t *testing.T) {
	r := newRig(t)
	if _, ok := r.mw.identityFor("bogus"); ok {
		t.Fatal("bogus session accepted")
	}
}

func TestUnknownCloudRejected(t *testing.T) {
	r := newRig(t)
	tok, _ := r.mw.Login(Shibboleth, "alice", "pw1")
	ident, _ := r.mw.identityFor(tok)
	if _, err := r.mw.launchServer(ident, "nimbus", "x", "m1.small"); err == nil {
		t.Fatal("unknown cloud accepted")
	}
}

// --- console ---

func consoleRig(t *testing.T) (*rig, *httptest.Server) {
	r := newRig(t)
	srv := httptest.NewServer(&Console{MW: r.mw})
	t.Cleanup(srv.Close)
	return r, srv
}

func consoleLogin(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	body := `{"provider":"shibboleth","username":"alice","secret":"pw1"}`
	resp, err := http.Post(srv.URL+"/login", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("login status %d", resp.StatusCode)
	}
	var out struct {
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Token
}

func consoleDo(t *testing.T, srv *httptest.Server, method, path, token, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("X-Tukey-Session", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestConsoleEndToEnd(t *testing.T) {
	_, srv := consoleRig(t)
	tok := consoleLogin(t, srv)

	// Launch via the console.
	resp := consoleDo(t, srv, "POST", "/console/launch", tok,
		`{"cloud":"sullivan","name":"web-vm","flavor":"m1.large"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Listed, tagged with the cloud.
	resp = consoleDo(t, srv, "GET", "/console/instances", tok, "")
	var list struct {
		Servers []TaggedServer `json:"servers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Servers) != 1 || list.Servers[0].Cloud != "sullivan" {
		t.Fatalf("instances = %+v", list.Servers)
	}

	// Terminate.
	resp = consoleDo(t, srv, "POST", "/console/terminate", tok,
		`{"cloud":"sullivan","id":"`+list.Servers[0].ID+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("terminate status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestConsoleRequiresSession(t *testing.T) {
	_, srv := consoleRig(t)
	resp := consoleDo(t, srv, "GET", "/console/instances", "", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", resp.StatusCode)
	}
}

func TestConsoleStatusRequiresSession(t *testing.T) {
	_, srv := consoleRig(t)
	// Unauthenticated: the topology must not leak.
	resp := consoleDo(t, srv, "GET", "/console/status", "", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated status = %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()

	// With a session the clouds are listed as before.
	tok := consoleLogin(t, srv)
	resp = consoleDo(t, srv, "GET", "/console/status", tok, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated status = %d, want 200", resp.StatusCode)
	}
	var out struct {
		Clouds []string `json:"clouds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Clouds) != 2 {
		t.Fatalf("clouds = %v", out.Clouds)
	}
}

func TestSessionExpiry(t *testing.T) {
	r := newRig(t)
	clock := time.Unix(1_350_000_000, 0) // any fixed instant
	r.mw.now = func() time.Time { return clock }
	r.mw.SetSessionTTL(30 * time.Minute)

	tok, err := r.mw.Login(Shibboleth, "alice", "pw1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.mw.identityFor(tok); !ok {
		t.Fatal("fresh session rejected")
	}
	if n := r.mw.SessionCount(); n != 1 {
		t.Fatalf("session count = %d, want 1", n)
	}

	clock = clock.Add(31 * time.Minute)
	if _, ok := r.mw.identityFor(tok); ok {
		t.Fatal("expired session accepted")
	}
	if n := r.mw.SessionCount(); n != 0 {
		t.Fatalf("session count after expiry = %d, want 0", n)
	}
	// A new login mints a fresh, valid session.
	tok2, err := r.mw.Login(Shibboleth, "alice", "pw1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.mw.identityFor(tok2); !ok {
		t.Fatal("re-login session rejected")
	}
}

func TestSessionsWithoutTTLNeverExpire(t *testing.T) {
	r := newRig(t)
	clock := time.Unix(1_350_000_000, 0)
	r.mw.now = func() time.Time { return clock }
	tok, err := r.mw.Login(Shibboleth, "alice", "pw1")
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(1000 * time.Hour)
	if _, ok := r.mw.identityFor(tok); !ok {
		t.Fatal("session without TTL expired")
	}
}

func TestLocalUserDerivation(t *testing.T) {
	c := &Console{}
	cases := map[Identity]string{
		{Shibboleth, "alice@uchicago.edu"}:  "alice",
		{OpenID, "https://id.osdc.org/bob"}: "bob",
		{OpenID, "plainuser"}:               "plainuser",
	}
	for id, want := range cases {
		if got := c.localUser(id); got != want {
			t.Fatalf("localUser(%v) = %q, want %q", id, got, want)
		}
	}
}
