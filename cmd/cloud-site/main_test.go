package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/core"
	"osdc/internal/sim"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloudSiteFreeRunServesNativeAndOperatorPlanes: the default mode is a
// self-contained site — native dialect, operator plane, readable clock.
func TestCloudSiteFreeRunServesNativeAndOperatorPlanes(t *testing.T) {
	s, err := newCloudSite(options{cloud: core.ClusterAdler, addr: "127.0.0.1:0", seed: 7, scale: 8, speedup: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	r := cloudapi.NewRemote(s.name, s.stack, s.url, nil)
	if s.stack != "openstack" {
		t.Fatalf("Adler stack = %s", s.stack)
	}
	if _, err := r.Flavors(); err != nil {
		t.Fatalf("native flavors route: %v", err)
	}
	if _, err := r.UsageSince(0); err != nil {
		t.Fatalf("operator usage route: %v", err)
	}
	st, err := r.Clock()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "free-run" {
		t.Fatalf("clock mode = %s, want free-run", st.Mode)
	}
	// The free-running driver advances the private engine.
	waitUntil(t, 5*time.Second, func() bool { return s.engine.Now() > 0 },
		"free-run clock never advanced")
}

// TestCloudSitePushFollow: -clock-follow push makes the site's engine track
// POSTed targets exactly.
func TestCloudSitePushFollow(t *testing.T) {
	s, err := newCloudSite(options{cloud: core.ClusterSullivan, addr: "127.0.0.1:0", seed: 8, scale: 8, clockFollow: "push"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	r := cloudapi.NewRemote(s.name, s.stack, s.url, nil)
	if err := r.ClockSync(sim.Time(2 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return s.engine.Now() >= sim.Time(2*sim.Minute) },
		"pushed target never reached")
	if now := s.engine.Now(); now != sim.Time(2*sim.Minute) {
		t.Fatalf("engine overshot the pushed target: %v", now)
	}
}

// TestCloudSitePollsCoordinator: -clock-follow <url> polls the
// coordinator's /clock endpoint and follows what it reports.
func TestCloudSitePollsCoordinator(t *testing.T) {
	var now atomic.Value
	now.Store(0.0)
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/clock" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintf(w, `{"now":%g}`, now.Load().(float64))
	}))
	defer coord.Close()

	s, err := newCloudSite(options{
		cloud: core.ClusterAdler, addr: "127.0.0.1:0", seed: 9, scale: 8,
		clockFollow: coord.URL, clockTick: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	now.Store(120.0)
	waitUntil(t, 5*time.Second, func() bool { return s.engine.Now() >= 120 },
		"site never caught the coordinator's clock")
	// The coordinator holding still holds the site still.
	time.Sleep(20 * time.Millisecond)
	if got := s.engine.Now(); got != 120 {
		t.Fatalf("site clock = %v with the coordinator parked at 120", got)
	}
}

// TestClockPollURL pins the -clock-follow URL resolution rules.
func TestClockPollURL(t *testing.T) {
	for raw, want := range map[string]string{
		"http://h:1":                "http://h:1/clock",
		"http://h:1/":               "http://h:1/clock",
		"http://h:1/cloudapi/clock": "http://h:1/cloudapi/clock",
	} {
		got, err := clockPollURL(raw)
		if err != nil || got != want {
			t.Errorf("clockPollURL(%q) = %q, %v; want %q", raw, got, err, want)
		}
	}
	if _, err := clockPollURL("not-a-url"); err == nil {
		t.Error("clockPollURL accepted a bare word")
	}
}
