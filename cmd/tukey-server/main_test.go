package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/core"
	"osdc/internal/sim"
	"osdc/internal/telemetry"
	"osdc/internal/tukey"
	"osdc/internal/wire"
)

// consoleDo issues one authenticated console request.
func consoleDo(t *testing.T, base, method, path, token, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
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

// login authenticates the pre-enrolled demo researcher.
func login(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Post(base+"/login", "application/json",
		strings.NewReader(`{"provider":"shibboleth","username":"demo","secret":"demo-pw"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Token == "" {
		t.Fatal("no session token")
	}
	return out.Token
}

// TestUsageAccruesThroughHTTP is the regression test for the frozen-clock
// bug: tukey-server used to build the federation but never step the
// engine, so /console/usage reported zero core-hours and cycle 1 forever.
// With the clock driver running, a launched VM must show nonzero usage
// through the HTTP route within wall seconds.
func TestUsageAccruesThroughHTTP(t *testing.T) {
	// 1 wall second ≈ 1 simulated day: minute polls land immediately.
	s, err := newServer(options{seed: 7, speedup: 86_400}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.console)
	defer srv.Close()
	tok := login(t, srv.URL)

	// Launch a VM on each cloud through the console.
	for _, cloud := range []string{core.ClusterAdler, core.ClusterSullivan} {
		resp := consoleDo(t, srv.URL, "POST", "/console/launch", tok,
			`{"cloud":"`+cloud+`","name":"reg","flavor":"m1.large"}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("launch on %s: status %d", cloud, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The driver must advance the sim clock under us until the billing
	// poller has metered the VMs: poll the HTTP route, not the internals.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := consoleDo(t, srv.URL, "GET", "/console/usage", tok, "")
		var usage struct {
			CoreHours float64 `json:"core_hours"`
			Cycle     int     `json:"cycle"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&usage); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if usage.CoreHours > 0 {
			if usage.Cycle < 1 {
				t.Fatalf("cycle = %d", usage.Cycle)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("usage still zero after 10 s wall with the clock driver running: %+v", usage)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFrozenClockStaysAtZero pins the opt-out: with speedup 0 the engine
// never advances, which is what the old tukey-server did unconditionally.
func TestFrozenClockStaysAtZero(t *testing.T) {
	s, err := newServer(options{seed: 8}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.driver != nil {
		t.Fatal("speedup 0 must not start a driver")
	}
	if s.fed.Engine.Now() != 0 {
		t.Fatalf("clock = %v, want 0", s.fed.Engine.Now())
	}
}

// TestShutdownEndsOpenStream: when the serving context ends, an open
// /console/stream response ends with it, so shutdown does not wait out
// wire.ShutdownGrace and the client reads a clean EOF.
func TestShutdownEndsOpenStream(t *testing.T) {
	s, err := newServer(options{seed: 10, speedup: 60}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- s.serve(ctx, addr) }()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("console never listened on %s: %v", addr, err)
		}
	}
	base := "http://" + addr
	resp := consoleDo(t, base, "GET", "/console/stream", login(t, base), "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}

	start := time.Now()
	cancel()
	read := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		read <- err
	}()
	select {
	case err := <-served:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(wire.ShutdownGrace + time.Second):
		t.Fatal("serve did not return")
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("shutdown with an open stream took %v, want under 1 s", took)
	}
	if err := <-read; err != nil {
		t.Fatalf("stream ended with %v, want EOF", err)
	}
}

// TestRemoteCloudsFullConsoleFlow is the -remote-clouds acceptance walk:
// each cloud behind its own HTTP listener with its own engine and driver,
// and the whole console flow — login → status → launch → list → usage →
// terminate — working over Remote transports only.
func TestRemoteCloudsFullConsoleFlow(t *testing.T) {
	s, err := newServer(options{seed: 9, speedup: 86_400, remoteClouds: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.sites) != 2 {
		t.Fatalf("%d cloud sites, want 2", len(s.sites))
	}
	if s.sites[0].URL == s.sites[1].URL {
		t.Fatal("both clouds share one listener")
	}
	engine := func(site *cloudapi.Site) *sim.Engine { return site.Server().Clock.(cloudapi.EngineClock).E }
	if engine(s.sites[0]) == engine(s.sites[1]) || engine(s.sites[0]) == s.fed.Engine {
		t.Fatal("cloud sites must not share an engine")
	}
	srv := httptest.NewServer(s.console)
	defer srv.Close()
	tok := login(t, srv.URL)

	// Status: both remote clouds attached.
	resp := consoleDo(t, srv.URL, "GET", "/console/status", tok, "")
	var status struct {
		Clouds []string `json:"clouds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(status.Clouds) != 2 {
		t.Fatalf("clouds = %v, want both remote sites", status.Clouds)
	}

	// Launch on each cloud (each request crosses console → middleware →
	// remote dialect → site listener).
	for _, cloud := range []string{core.ClusterAdler, core.ClusterSullivan} {
		resp := consoleDo(t, srv.URL, "POST", "/console/launch", tok,
			`{"cloud":"`+cloud+`","name":"remote-vm","flavor":"m1.large"}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("launch on %s: status %d", cloud, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The aggregated listing shows both clouds' VMs.
	resp = consoleDo(t, srv.URL, "GET", "/console/instances", tok, "")
	var list struct {
		Servers []tukey.TaggedServer `json:"servers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Servers) != 2 {
		t.Fatalf("aggregated %d servers, want 2: %+v", len(list.Servers), list.Servers)
	}
	byCloud := map[string]tukey.TaggedServer{}
	for _, srv := range list.Servers {
		byCloud[srv.Cloud] = srv
	}
	if len(byCloud) != 2 {
		t.Fatalf("servers not spread across both clouds: %+v", list.Servers)
	}

	// Usage accrues: the console-engine biller polls the sites over HTTP.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := consoleDo(t, srv.URL, "GET", "/console/usage", tok, "")
		var usage struct {
			CoreHours float64 `json:"core_hours"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&usage); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if usage.CoreHours > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("usage still zero after 10 s wall in remote topology")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Terminate both; the listing empties.
	for cloud, srvr := range byCloud {
		resp := consoleDo(t, srv.URL, "POST", "/console/terminate", tok,
			`{"cloud":"`+cloud+`","id":"`+srvr.ID+`"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("terminate %s on %s: status %d", srvr.ID, cloud, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp = consoleDo(t, srv.URL, "GET", "/console/instances", tok, "")
	list.Servers = nil
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Servers) != 0 {
		t.Fatalf("servers after terminate = %+v", list.Servers)
	}
}

// TestRateLimitFlag wires the -rate-limit flag through to 429s: a burst of
// requests from one user exhausts their bucket while the next user still
// gets through.
func TestRateLimitFlag(t *testing.T) {
	s, err := newServer(options{seed: 10, rateLimit: 1, rateBurst: 3}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.console)
	defer srv.Close()
	tok := login(t, srv.URL) // spends 1 of demo's 3 tokens

	limited := false
	for i := 0; i < 5; i++ {
		resp := consoleDo(t, srv.URL, "GET", "/console/status", tok, "")
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			limited = true
			break
		}
	}
	if !limited {
		t.Fatal("burst of 6 requests against burst=3 never saw 429")
	}
}

// TestShardedLiveConsoleFlow drives the -shards live path: a K=4 kernel
// behind the shard driver, launch/stop/terminate through the console, and
// usage accruing while every shard advances in lockstep (an instance homed
// off the anchor shard would otherwise never boot or meter).
func TestShardedLiveConsoleFlow(t *testing.T) {
	s, err := newServer(options{seed: 11, shards: 4, speedup: 86_400}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.fed.Set.K() != 4 {
		t.Fatalf("kernel K = %d, want 4", s.fed.Set.K())
	}
	srv := httptest.NewServer(s.console)
	defer srv.Close()
	tok := login(t, srv.URL)

	// Enough launches that some instance IDs hash off the anchor shard.
	var ids []string
	for i := 0; i < 6; i++ {
		resp := consoleDo(t, srv.URL, "POST", "/console/launch", tok,
			`{"cloud":"`+core.ClusterAdler+`","name":"sh","flavor":"m1.small"}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("launch %d: status %d", i, resp.StatusCode)
		}
		var out struct {
			Server struct {
				ID string `json:"ID"`
			} `json:"server"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, out.Server.ID)
	}
	offAnchor := false
	for _, id := range ids {
		if s.fed.Set.ShardIndex(id) != 0 {
			offAnchor = true
		}
	}
	if !offAnchor {
		t.Fatalf("all %d instances hashed to the anchor shard; test proves nothing", len(ids))
	}

	servers := func() []tukey.TaggedServer {
		resp := consoleDo(t, srv.URL, "GET", "/console/instances", tok, "")
		defer resp.Body.Close()
		var list struct {
			Servers []tukey.TaggedServer `json:"servers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		return list.Servers
	}

	// Every instance reaches ACTIVE: the shard driver advances the owning
	// shard's boot timer no matter where the ID hashed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		active := 0
		for _, sv := range servers() {
			if sv.Status == "ACTIVE" {
				active++
			}
		}
		if active == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d instances ACTIVE after 10 s wall on the sharded kernel", active, len(ids))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Stop one off-anchor instance through the console; the stop timer must
	// fire on the owning shard and reach SHUTOFF.
	stopID := ""
	for _, id := range ids {
		if s.fed.Set.ShardIndex(id) != 0 {
			stopID = id
			break
		}
	}
	resp := consoleDo(t, srv.URL, "POST", "/console/stop", tok,
		`{"cloud":"`+core.ClusterAdler+`","id":"`+stopID+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stop: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		status := ""
		for _, sv := range servers() {
			if sv.ID == stopID {
				status = sv.Status
			}
		}
		if status == "SHUTOFF" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("off-anchor instance %s still %q after stop", stopID, status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Usage accrues through the anchor-shard biller.
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp := consoleDo(t, srv.URL, "GET", "/console/usage", tok, "")
		var usage struct {
			CoreHours float64 `json:"core_hours"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&usage); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if usage.CoreHours > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("usage still zero on the sharded kernel")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPprofBehindOperatorGate is the profiling-plane smoke test: without
// -operator-secret the endpoints do not exist, an unauthenticated fetch
// against a gated server is 403, and the right X-OSDC-Operator header
// serves the pprof index.
func TestPprofBehindOperatorGate(t *testing.T) {
	open, err := newServer(options{seed: 31}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	openSrv := httptest.NewServer(open.handler)
	defer openSrv.Close()
	resp, err := http.Get(openSrv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without a secret = %d, want 404", resp.StatusCode)
	}

	gated, err := newServer(options{seed: 32, operatorSecret: "op-secret"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer gated.Close()
	gatedSrv := httptest.NewServer(gated.handler)
	defer gatedSrv.Close()

	resp, err = http.Get(gatedSrv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unauthenticated pprof fetch = %d, want 403", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, gatedSrv.URL+"/debug/pprof/", nil)
	req.Header.Set("X-OSDC-Operator", "op-secret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated pprof fetch = %d, want 200", resp.StatusCode)
	}
}

// TestMetricsBehindOperatorGate: the telemetry plane shares the pprof
// gate contract exactly — 404 without a secret, 403 without (or with the
// wrong) X-OSDC-Operator header, exposition text with it — and the
// console-side registry carries the kernel, billing, and console series.
func TestMetricsBehindOperatorGate(t *testing.T) {
	open, err := newServer(options{seed: 41}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	openSrv := httptest.NewServer(open.handler)
	defer openSrv.Close()
	resp, err := http.Get(openSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("metrics without a secret = %d, want 404", resp.StatusCode)
	}

	gated, err := newServer(options{seed: 42, operatorSecret: "op-secret"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer gated.Close()
	gatedSrv := httptest.NewServer(gated.handler)
	defer gatedSrv.Close()

	resp, err = http.Get(gatedSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unauthenticated metrics fetch = %d, want 403", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, gatedSrv.URL+"/metrics", nil)
	req.Header.Set("X-OSDC-Operator", "not-the-secret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("wrong-secret metrics fetch = %d, want 403", resp.StatusCode)
	}

	// One console request so the per-route counters exist before scraping.
	tok := login(t, gatedSrv.URL)
	consoleDo(t, gatedSrv.URL, "GET", "/console/status", tok, "").Body.Close()

	req.Header.Set("X-OSDC-Operator", "op-secret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated metrics fetch = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type = %q", ct)
	}
	parsed, err := telemetry.ParseText(body)
	if err != nil {
		t.Fatalf("exposition body does not parse: %v", err)
	}
	for _, want := range []string{
		`osdc_engine_fired_total{shard="0"}`,
		"osdc_billing_polls_total",
		`osdc_console_requests_total{route="GET /console/status"}`,
		"osdc_console_throttled_total",
	} {
		if _, ok := parsed[want]; !ok {
			t.Errorf("series %s missing from tukey-server exposition", want)
		}
	}
}
