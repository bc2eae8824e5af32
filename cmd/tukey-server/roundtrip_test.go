package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"osdc/internal/lb"
	"osdc/internal/tukey"
	"osdc/internal/tukeystate"
)

// TestOneStateRoundTripPerSessionRequest counts state-plane requests per
// console request on the deployment tukey-server -state-url builds: two
// replicas behind the balancer, one state plane. A login costs two (the
// username's charge, then the session Put); every session-route request
// costs exactly one — a /state/check that resolves the token and charges
// its bucket together — whether it answers 200, 401 or 429. The status
// ladder is TestConsoleThrottlesTokenGuessing's, across replicas: guesses
// 401 inside the shared invalid-session burst, then 429, and the valid
// session still answers 200.
func TestOneStateRoundTripPerSessionRequest(t *testing.T) {
	// Rate 0: buckets never refill, so every status below is exact. The
	// demo researcher's scripted requests cost 20 (launch 10, instances 2,
	// usage, datasets and status 1 each, terminate 5), leaving 4.
	const burst = 24
	statePlane := tukeystate.NewServer(tukey.NewMemorySessionStore(), tukey.NewRateLimiter(0, burst))
	stateSrv := httptest.NewServer(statePlane)
	defer stateSrv.Close()
	trips := func() float64 { return statePlane.Metrics.Snapshot()["osdc_state_requests_total"] }

	var urls []string
	for k, seed := range []uint64{31, 32} {
		s, err := newServer(options{seed: seed, stateURL: stateSrv.URL, replica: fmt.Sprintf("r%d", k+1)})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s.handler)
		defer s.Close()
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	front := httptest.NewServer(lb.NewPool(urls, nil))
	defer front.Close()

	// do issues one request through the balancer and checks its status and
	// the state-plane requests it cost.
	do := func(method, path, token, body string, wantCode int, wantTrips float64) *http.Response {
		t.Helper()
		before := trips()
		resp := consoleDo(t, front.URL, method, path, token, body)
		if resp.StatusCode != wantCode {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantCode)
		}
		if d := trips() - before; d != wantTrips {
			t.Fatalf("%s %s (status %d): %v state-plane requests, want %v", method, path, resp.StatusCode, d, wantTrips)
		}
		return resp
	}

	before := trips()
	tok := login(t, front.URL)
	if d := trips() - before; d != 2 {
		t.Fatalf("login: %v state-plane requests, want 2 (allow + put)", d)
	}

	resp := do("POST", "/console/launch", tok, `{"cloud":"OSDC-Adler","name":"rt-vm","flavor":"m1.large"}`, http.StatusAccepted, 1)
	var launched struct {
		Server tukey.TaggedServer `json:"server"`
	}
	err := json.NewDecoder(resp.Body).Decode(&launched)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/console/instances", "/console/usage", "/console/datasets", "/console/status"} {
		do("GET", path, tok, "", http.StatusOK, 1).Body.Close()
	}
	do("POST", "/console/terminate", tok,
		fmt.Sprintf(`{"cloud":"OSDC-Adler","id":%q}`, launched.Server.ID), http.StatusOK, 1).Body.Close()

	// Sequential guesses (cost 1 each) hash across both replicas and drain
	// one shared invalid-session bucket: burst 401s, then 429 with the
	// console's own message.
	guess := func(i int) string { return fmt.Sprintf("tukey-sess-r1-%06d", 900+i) }
	for i := 0; i < burst; i++ {
		do("GET", "/console/status", guess(i), "", http.StatusUnauthorized, 1).Body.Close()
	}
	resp = do("GET", "/console/status", guess(burst), "", http.StatusTooManyRequests, 1)
	var throttled struct{ Error string }
	err = json.NewDecoder(resp.Body).Decode(&throttled)
	resp.Body.Close()
	if want := "rate limit exceeded for " + tukey.AdmissionKey(tukey.Session{}, false, time.Time{}); err != nil || throttled.Error != want {
		t.Fatalf("429 body = %q (%v), want %q", throttled.Error, err, want)
	}
	do("GET", "/console/status", tok, "", http.StatusOK, 1).Body.Close()
}
