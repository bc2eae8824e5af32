package tukeystate

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"osdc/internal/telemetry"
	"osdc/internal/tukey"
	"osdc/internal/wire"
)

// TestMetricsGate pins the state plane's /metrics behind the operator
// gate: 404 with no secret configured, 403 without or with a wrong
// header, and the exposition with it, where scrapes are not counted as
// state-plane requests.
func TestMetricsGate(t *testing.T) {
	serve := func(secret string) string {
		srv := NewServer(tukey.NewMemorySessionStore(), nil)
		srv.OperatorSecret = secret
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	open, gated := serve(""), serve("s3")
	get := func(url, header string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if header != "" {
			req.Header.Set(wire.OperatorHeader, header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get(open+"/metrics", "s3"); code != http.StatusNotFound || !strings.Contains(body, "metrics plane requires an operator secret") {
		t.Fatalf("metrics without a secret = %d %q, want 404", code, body)
	}
	for _, header := range []string{"", "wrong"} {
		if code, body := get(gated+"/metrics", header); code != http.StatusForbidden || !strings.Contains(body, "metrics plane requires X-OSDC-Operator") {
			t.Fatalf("metrics with header %q = %d %q, want 403", header, code, body)
		}
	}
	if code, _ := get(gated+"/state/health", ""); code != http.StatusOK {
		t.Fatalf("health = %d", code)
	}
	code, body := get(gated+"/metrics", "s3")
	if code != http.StatusOK {
		t.Fatalf("authenticated metrics = %d, want 200", code)
	}
	parsed, err := telemetry.ParseText([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed["osdc_state_requests_total"]; got != 1 {
		t.Fatalf("osdc_state_requests_total = %v, want 1 (the health check; scrapes are not counted)", got)
	}
}
