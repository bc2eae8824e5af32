package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"osdc/internal/telemetry"
	"osdc/internal/wire"
)

func TestRunRequiresBackend(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-backend") {
		t.Fatalf("run without -backend = %v, want an error naming -backend", err)
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
	err = run(context.Background(), []string{"-addr", ln.Addr().String(), "-backend", "http://127.0.0.1:1"}, io.Discard)
	if err == nil {
		t.Fatalf("run on the taken address %s returned nil", ln.Addr())
	}
}

// TestRunReturnsNilWhenContextEnds: a shutdown signal (here, a context
// already cancelled) is a clean exit.
func TestRunReturnsNilWhenContextEnds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-backend", "http://127.0.0.1:1"}, io.Discard); err != nil {
		t.Fatalf("run with a cancelled context = %v, want nil", err)
	}
}

// TestProbeLoopMarksDeadBackendDown: with -probe set, the balancer's own
// loop finds a backend whose /healthz stopped answering 200 and marks it
// down, and /metrics counts the failed probes. Nothing here calls Probe.
func TestProbeLoopMarksDeadBackendDown(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer backend.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- run(ctx, []string{"-addr", addr, "-backend", backend.URL, "-probe", "5ms",
			"-evict-after", "0", "-operator-secret", "s3"}, io.Discard)
	}()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("run = %v after cancel, want nil", err)
		}
	}()
	// metrics reads the balancer's own gauges and counters over HTTP.
	metrics := func() map[string]float64 {
		req, _ := http.NewRequest(http.MethodGet, "http://"+addr+"/metrics", nil)
		req.Header.Set(wire.OperatorHeader, "s3")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil // not listening yet
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		series, err := telemetry.ParseText(body)
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	waitFor := func(what string, cond func(map[string]float64) bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
			if m := metrics(); m != nil && cond(m) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: never seen; last /metrics %v", what, metrics())
			}
		}
	}
	waitFor("a healthy backend", func(m map[string]float64) bool {
		return m["osdc_lb_backends_healthy"] == 1 && m["osdc_lb_probe_failures_total"] == 0
	})
	healthy.Store(false)
	waitFor("the dead backend marked down by the probe loop", func(m map[string]float64) bool {
		return m["osdc_lb_backends_healthy"] == 0 && m["osdc_lb_probe_failures_total"] > 0
	})
}
