package cloudapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"osdc/internal/telemetry"
)

// TestMetricsGate pins the telemetry plane's auth on a cloud server:
// absent without a configured secret (404), 403 without or with the
// wrong X-OSDC-Operator header, served in exposition format with it —
// the exact contract ServePprof set for the profiling plane.
func TestMetricsGate(t *testing.T) {
	rig := newParityRig(t, "openstack")

	open := httptest.NewServer(NewServer(rig.cloud))
	t.Cleanup(open.Close)
	resp, err := http.Get(open.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("metrics without secret = %d, want 404", resp.StatusCode)
	}

	gatedSrv := NewServer(rig.cloud)
	gatedSrv.OperatorSecret = "s3cret"
	gated := httptest.NewServer(gatedSrv)
	t.Cleanup(gated.Close)

	resp, err = http.Get(gated.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unauthenticated metrics = %d, want 403", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, gated.URL+"/metrics", nil)
	req.Header.Set("X-OSDC-Operator", "wrong")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("wrong-secret metrics = %d, want 403", resp.StatusCode)
	}

	req.Header.Set("X-OSDC-Operator", "s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	parsed, err := telemetry.ParseText(body)
	if err != nil {
		t.Fatalf("exposition body does not parse: %v", err)
	}
	for _, want := range []string{
		`osdc_usage_cache_hits_total{cloud="parity-openstack"}`,
		`osdc_usage_cache_resets_total{cloud="parity-openstack"}`,
	} {
		if _, ok := parsed[want]; !ok {
			t.Errorf("series %s missing from cloud-server exposition: %v", want, parsed)
		}
	}
}

// TestSiteMetricsCarryEngineSeries: a Site's /metrics includes its
// kernel's per-shard series — the collector's raw material.
func TestSiteMetricsCarryEngineSeries(t *testing.T) {
	rig := newParityRig(t, "openstack")
	site, err := StartSite(rig.engine, rig.cloud, SiteOptions{OperatorSecret: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)

	req, _ := http.NewRequest(http.MethodGet, site.URL+"/metrics", nil)
	req.Header.Set("X-OSDC-Operator", "s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("site metrics = %d, want 200", resp.StatusCode)
	}
	parsed, err := telemetry.ParseText(body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`osdc_engine_pending{shard="0"}`,
		`osdc_engine_fired_total{shard="0"}`,
		`osdc_engine_now_seconds{shard="0"}`,
	} {
		if _, ok := parsed[want]; !ok {
			t.Errorf("series %s missing from site exposition", want)
		}
	}
}
