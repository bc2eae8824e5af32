package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"osdc/internal/core"
	"osdc/internal/telemetry"
	"osdc/internal/wire"
)

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-no-such-flag"}, io.Discard); err == nil {
		t.Fatal("run with an unknown flag returned nil")
	}
}

// TestRunReturnsListenError: an address already taken comes back as the
// error instead of ending the process.
func TestRunReturnsListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := run(context.Background(), []string{"-addr", ln.Addr().String()}, io.Discard); err == nil {
		t.Fatalf("run on the taken address %s returned nil", ln.Addr())
	}
}

// TestRunReturnsNilWhenContextEnds: a shutdown signal (here, a context
// already cancelled) is a clean exit.
func TestRunReturnsNilWhenContextEnds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-addr", "127.0.0.1:0"}, io.Discard); err != nil {
		t.Fatalf("run with a cancelled context = %v, want nil", err)
	}
}

// TestTelemetryScrapeLoopFeedsMetrics: with -telemetry-scrape the
// console's collector loop scrapes every attached cloud, and the gated
// /metrics carries one member-labelled series per cloud for it.
func TestTelemetryScrapeLoopFeedsMetrics(t *testing.T) {
	s, err := newServer(options{seed: 51, speedup: 86_400, remoteClouds: true,
		operatorSecret: "s3", telemetryScrape: 20 * time.Millisecond}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	metrics := func() map[string]float64 {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		req.Header.Set(wire.OperatorHeader, "s3")
		rec := httptest.NewRecorder()
		s.handler.ServeHTTP(rec, req)
		series, err := telemetry.ParseText(rec.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	scraped := func(m map[string]float64) bool {
		for _, cloud := range []string{core.ClusterAdler, core.ClusterSullivan} {
			if m[`osdc_scrapes_total{member="`+cloud+`"}`] < 1 || m[`osdc_scrape_series{member="`+cloud+`"}`] < 1 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !scraped(metrics()); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("no member scraped after 10 s; /metrics %v", metrics())
		}
	}
}
