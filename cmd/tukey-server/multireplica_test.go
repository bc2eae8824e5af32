package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"osdc/internal/cloudapi"
	"osdc/internal/core"
	"osdc/internal/lb"
	"osdc/internal/sim"
	"osdc/internal/telemetry"
	"osdc/internal/tukey"
	"osdc/internal/tukeystate"
)

// TestMultiReplicaSmoke is the whole PR in one test: two stateless console
// replicas sharing a tukey-state plane, fronted by the tukey-lb pool.
// A researcher logs in through the balancer, their session is valid on
// every replica, the per-user admission budget is shared (429s count
// requests across replicas, not per replica), every binary in the
// deployment (both replicas, the balancer, the state plane) answers a
// gated /metrics scrape, and killing the exact replica the session is
// pinned to loses nothing — the next request retries onto the survivor
// with the same token.
func TestMultiReplicaSmoke(t *testing.T) {
	// One shared world: both clouds live behind cloudapi sites that every
	// replica attaches by URL, so a VM launched through replica 1 is
	// visible through replica 2.
	set := sim.NewShardSet(21, 1)
	adler := core.BuildCloud(set.Anchor(), core.ClusterAdler, 8)
	sullivan := core.BuildCloud(set.Anchor(), core.ClusterSullivan, 8)
	siteA, err := cloudapi.StartSite(set, adler, cloudapi.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer siteA.Close()
	siteS, err := cloudapi.StartSite(set, sullivan, cloudapi.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer siteS.Close()

	// The state plane: shared sessions plus a shared limiter. Rate 0 means
	// buckets never refill, so the 429 arithmetic below is deterministic.
	// Every binary in this deployment carries the same operator secret, so
	// the telemetry sweep below can scrape all of them.
	const burst = 30
	const opSecret = "smoke-op-secret"
	statePlane := tukeystate.NewServer(
		tukey.NewMemorySessionStore(), tukey.NewRateLimiter(0, burst))
	statePlane.OperatorSecret = opSecret
	stateSrv := httptest.NewServer(statePlane)
	defer stateSrv.Close()

	shared := siteList{
		{name: core.ClusterAdler, url: siteA.URL},
		{name: core.ClusterSullivan, url: siteS.URL},
	}
	mkReplica := func(name string, seed uint64) (*httptest.Server, func()) {
		s, err := newServer(options{seed: seed, stateURL: stateSrv.URL, replica: name,
			sites: shared, operatorSecret: opSecret}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s.handler)
		return srv, func() { srv.CloseClientConnections(); srv.Close(); s.Close() }
	}
	r1, kill1 := mkReplica("r1", 22)
	defer kill1()
	r2, kill2 := mkReplica("r2", 23)
	defer kill2()

	// Front the pool the way cmd/tukey-lb does: the balancer's own gated
	// /metrics on the same listener, everything else proxied.
	pool := lb.NewPool([]string{r1.URL, r2.URL}, nil)
	lbReg := telemetry.NewRegistry()
	pool.RegisterMetrics(lbReg)
	lbMux := http.NewServeMux()
	lbMux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		telemetry.ServeMetrics(opSecret, lbReg, w, r)
	})
	lbMux.Handle("/", pool)
	front := httptest.NewServer(lbMux)
	defer front.Close()

	// Login through the balancer. The token carries whichever replica's
	// prefix minted it — proof the replicas, not the plane, mint tokens.
	tok := login(t, front.URL)
	if !strings.HasPrefix(tok, "tukey-sess-r1-") && !strings.HasPrefix(tok, "tukey-sess-r2-") {
		t.Fatalf("token %q carries no replica prefix", tok)
	}

	// The session is valid on BOTH replicas directly: it lives in the
	// state plane, not in whichever replica minted it. (2 × cost 1)
	for _, base := range []string{r1.URL, r2.URL} {
		resp := consoleDo(t, base, "GET", "/console/status", tok, "")
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("session minted through lb invalid on %s: %d", base, resp.StatusCode)
		}
	}
	// Full read through the balancer. (cost 2)
	resp := consoleDo(t, front.URL, "GET", "/console/instances", tok, "")
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("instances through lb: %d", resp.StatusCode)
	}

	// The telemetry sweep: every binary in the deployment — both replicas,
	// the balancer, and the state plane — serves gated exposition text with
	// its own characteristic series. Scrapes ride outside the admission
	// budget, so the 429 arithmetic below is untouched.
	scrape := func(base string) map[string]float64 {
		t.Helper()
		req, _ := http.NewRequest("GET", base+"/metrics", nil)
		req.Header.Set("X-OSDC-Operator", opSecret)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("scrape %s/metrics: status %d", base, resp.StatusCode)
		}
		parsed, err := telemetry.ParseText(body)
		if err != nil {
			t.Fatalf("scrape %s/metrics: %v", base, err)
		}
		return parsed
	}
	for _, base := range []string{r1.URL, r2.URL} {
		parsed := scrape(base)
		for _, want := range []string{
			`osdc_engine_fired_total{shard="0"}`, "osdc_billing_polls_total",
			"osdc_console_throttled_total",
		} {
			if _, ok := parsed[want]; !ok {
				t.Errorf("replica %s exposition missing %s", base, want)
			}
		}
	}
	if parsed := scrape(front.URL); parsed["osdc_lb_backends"] != 2 ||
		parsed["osdc_lb_backends_healthy"] != 2 {
		t.Errorf("balancer gauges = %v/%v, want 2/2",
			parsed["osdc_lb_backends"], parsed["osdc_lb_backends_healthy"])
	}
	if parsed := scrape(stateSrv.URL); parsed["osdc_state_requests_total"] <= 0 {
		t.Errorf("state plane served %v requests, want > 0", parsed["osdc_state_requests_total"])
	}

	// Kill the exact replica this session is pinned to, mid-run. The next
	// request through the balancer must retry onto the survivor and
	// succeed with the same token — an established session survives its
	// replica. (cost 1)
	victim := pool.PickBackend(tok)
	if victim == r1.URL {
		kill1()
	} else if victim == r2.URL {
		kill2()
	} else {
		t.Fatalf("token pinned to unknown backend %q", victim)
	}
	resp = consoleDo(t, front.URL, "GET", "/console/status", tok, "")
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("session lost with its replica: status %d after kill", resp.StatusCode)
	}
	if pool.Retries == 0 {
		t.Fatal("balancer never retried onto the survivor")
	}
	if h := pool.Healthy(); h != 1 {
		t.Fatalf("healthy backends after kill = %d, want 1", h)
	}

	// A mutating flow still completes on the survivor. (cost 10)
	resp = consoleDo(t, front.URL, "POST", "/console/launch", tok,
		`{"cloud":"OSDC-Adler","name":"smoke-vm","flavor":"m1.large"}`)
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("launch through lb after kill: %d", resp.StatusCode)
	}

	// The admission budget is shared across replicas: 15 tokens are spent
	// above (1+1 direct, 2 instances, 1 post-kill status, 10 launch), so
	// exactly burst-15 more status reads are admitted before the shared
	// bucket answers 429 — no matter which replica serves them.
	const spent = 15
	admitted := 0
	sawLimit := false
	for i := 0; i <= burst-spent; i++ {
		resp := consoleDo(t, front.URL, "GET", "/console/status", tok, "")
		resp.Body.Close()
		switch resp.StatusCode {
		case 200:
			admitted++
		case 429:
			sawLimit = true
		default:
			t.Fatalf("drain request %d: status %d", i, resp.StatusCode)
		}
		if sawLimit {
			break
		}
	}
	if !sawLimit {
		t.Fatalf("shared limiter never answered 429 (admitted %d)", admitted)
	}
	if admitted != burst-spent {
		t.Fatalf("admitted %d requests before 429, want %d (shared budget drifted)", admitted, burst-spent)
	}
}
