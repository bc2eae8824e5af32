package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
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
	s, err := newCloudSite(options{cloud: core.ClusterAdler, addr: "127.0.0.1:0", seed: 7, scale: 8, speedup: 60_000}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	r := cloudapi.NewRemote(s.Cloud.Name, s.Cloud.Stack, s.URL, nil)
	if s.Cloud.Stack != "openstack" {
		t.Fatalf("Adler stack = %s", s.Cloud.Stack)
	}
	if _, err := r.Instances("alice"); err != nil {
		t.Fatalf("native listing route: %v", err)
	}
	if _, err := r.UsageSince(context.Background(), 0); err != nil {
		t.Fatalf("operator usage route: %v", err)
	}
	st, err := r.Clock(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "free-run" {
		t.Fatalf("clock mode = %s, want free-run", st.Mode)
	}
	// The free-running driver advances the private engine.
	waitUntil(t, 5*time.Second, func() bool { return sim.Time(s.Server().Clock.ClockStatus().Now) > 0 },
		"free-run clock never advanced")
}

// TestCloudSitePushFollow: -clock-follow push makes the site's engine track
// POSTed targets exactly.
func TestCloudSitePushFollow(t *testing.T) {
	s, err := newCloudSite(options{cloud: core.ClusterSullivan, addr: "127.0.0.1:0", seed: 8, scale: 8, clockFollow: "push"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	r := cloudapi.NewRemote(s.Cloud.Name, s.Cloud.Stack, s.URL, nil)
	if err := r.ClockSync(context.Background(), sim.Time(2*sim.Minute)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return sim.Time(s.Server().Clock.ClockStatus().Now) >= sim.Time(2*sim.Minute) },
		"pushed target never reached")
	if now := sim.Time(s.Server().Clock.ClockStatus().Now); now != sim.Time(2*sim.Minute) {
		t.Fatalf("engine overshot the pushed target: %v", now)
	}
}

// TestCloudSitePollsCoordinator: -clock-follow <url> polls the
// coordinator's /clock endpoint and follows what it reports.
func TestCloudSitePollsCoordinator(t *testing.T) {
	var now atomic.Value
	var polls atomic.Int64
	now.Store(0.0)
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/clock" {
			http.NotFound(w, req)
			return
		}
		polls.Add(1)
		fmt.Fprintf(w, `{"now":%g}`, now.Load().(float64))
	}))
	defer coord.Close()

	s, err := newCloudSite(options{
		cloud: core.ClusterAdler, addr: "127.0.0.1:0", seed: 9, scale: 8,
		clockFollow: coord.URL, clockTick: 2 * time.Millisecond,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	now.Store(120.0)
	waitUntil(t, 5*time.Second, func() bool { return sim.Time(s.Server().Clock.ClockStatus().Now) >= 120 },
		"site never caught the coordinator's clock")
	// The coordinator holding still holds the site still, for ten more
	// polls: as many as the 2 ms tick makes in 20 ms.
	from := polls.Load()
	waitUntil(t, 5*time.Second, func() bool { return polls.Load() >= from+10 },
		"site stopped polling the coordinator")
	if got := sim.Time(s.Server().Clock.ClockStatus().Now); got != 120 {
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

// TestRunRejectsBadFlag: an unknown flag, or a poll period no ticker can
// run at, is an error before anything starts.
func TestRunRejectsBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-clock-follow", "http://127.0.0.1:1", "-clock-interval", "0"},
	} {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("run %q returned nil", args)
		}
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
	if err := run(context.Background(), []string{"-addr", ln.Addr().String(), "-scale", "8"}, io.Discard, io.Discard); err == nil {
		t.Fatalf("run on the taken address %s returned nil", ln.Addr())
	}
}

// TestRunReturnsNilWhenContextEnds: a shutdown signal (here, a context
// already cancelled) is a clean exit, after the spawn line is printed.
func TestRunReturnsNilWhenContextEnds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout bytes.Buffer
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-scale", "8"}, &stdout, io.Discard); err != nil {
		t.Fatalf("run with a cancelled context = %v, want nil", err)
	}
	if line := stdout.String(); !strings.HasPrefix(line, "cloud-site "+core.ClusterAdler+" (openstack) listening on http://127.0.0.1:") {
		t.Fatalf("spawn line = %q", line)
	}
}
