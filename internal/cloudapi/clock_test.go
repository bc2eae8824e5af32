package cloudapi

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// testCloud builds a tiny cloud for clock-plane tests. Names must be
// unique per test federation: the coordinator keys its skew stats by them.
func testCloud(e *sim.Engine, name, stack string) *iaas.Cloud {
	c := iaas.NewCloud(e, name, stack, "test-site")
	c.AddRack("r1", 2)
	return c
}

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

// TestClockPlaneFreeRunSite: a free-run site's clock is readable over the
// wire but rejects sync targets with the free-running conflict.
func TestClockPlaneFreeRunSite(t *testing.T) {
	e := sim.NewEngine(1)
	site, err := StartSite(e, testCloud(e, "clock-test", "openstack"), 0) // frozen free-run clock
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	r := site.RemoteWithClient(nil)

	st, err := r.Clock()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "free-run" || st.Now != 0 {
		t.Fatalf("clock status = %+v, want free-run at 0", st)
	}
	if err := r.ClockSync(100); !errors.Is(err, ErrFreeRunning) {
		t.Fatalf("sync against free-run site: %v, want ErrFreeRunning", err)
	}
	if site.Follower() != nil {
		t.Fatal("free-run site has a follower")
	}
}

// TestClockPlaneFollowSite: pushed targets advance a followed site's engine
// to the target and never past it, visible both in-process and over the
// wire.
func TestClockPlaneFollowSite(t *testing.T) {
	e := sim.NewEngine(2)
	site, err := StartSiteWithOptions(e, testCloud(e, "clock-test", "eucalyptus"),
		SiteOptions{Clock: ClockFollow, Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	r := site.RemoteWithClient(nil)

	if err := r.ClockSync(sim.Time(5 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return e.Now() >= sim.Time(5*sim.Minute) },
		"followed site never reached the pushed target")
	if now := e.Now(); now != sim.Time(5*sim.Minute) {
		t.Fatalf("followed site overshot the target: %v", now)
	}
	st, err := r.Clock()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "follow" || st.Now != float64(5*sim.Minute) || st.Target != float64(5*sim.Minute) {
		t.Fatalf("clock status = %+v, want follow at 300", st)
	}
}

// TestClockPlaneNoClock pins the pre-clock-plane contract: a bare Server
// with no ClockPlane answers 404 on both clock routes.
func TestClockPlaneNoClock(t *testing.T) {
	e := sim.NewEngine(3)
	srv := httptest.NewServer(NewServer(testCloud(e, "clock-test", "openstack")))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/cloudapi/clock")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET clock on clockless server: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/cloudapi/clock", "application/json", strings.NewReader(`{"target":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST clock on clockless server: %d, want 404", resp.StatusCode)
	}
}

// TestClockSyncRejectsBadTargets: malformed and negative targets are 400s,
// not clock movements.
func TestClockSyncRejectsBadTargets(t *testing.T) {
	e := sim.NewEngine(4)
	site, err := StartSiteWithOptions(e, testCloud(e, "clock-test", "openstack"),
		SiteOptions{Clock: ClockFollow, Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()

	for _, body := range []string{`{"target":-5}`, `not json`} {
		resp, err := http.Post(site.URL+"/cloudapi/clock", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q: %d, want 400", body, resp.StatusCode)
		}
	}
	if e.Now() != 0 {
		t.Fatalf("bad targets moved the clock to %v", e.Now())
	}
}

// TestCoordinatorBoundsSkew is the clock plane working end to end in one
// process: a console engine free-runs while a coordinator pushes its time
// to two followed sites over real HTTP. Every site must track the console
// within one sync interval (the follower contract), measured as
// skew-beyond-one-actual-interval staying far below the interval's virtual
// span.
func TestCoordinatorBoundsSkew(t *testing.T) {
	const speedup = 60_000
	syncEvery := 10 * time.Millisecond

	console := sim.NewEngine(10)
	var sites []*Site
	var targets []ClockSyncTarget
	for i, stack := range []string{"openstack", "eucalyptus"} {
		e := sim.NewEngine(uint64(20 + i))
		site, err := StartSiteWithOptions(e, testCloud(e, fmt.Sprintf("clock-site-%d", i), stack),
			SiteOptions{Clock: ClockFollow, Tick: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer site.Close()
		sites = append(sites, site)
		targets = append(targets, site.RemoteWithClient(nil))
	}

	driver := sim.StartDriver(console, speedup, time.Millisecond)
	defer driver.Stop()
	coord := StartClockCoordinator(console, syncEvery, targets...)
	defer coord.Stop()

	waitUntil(t, 10*time.Second, func() bool { return coord.Syncs() >= 20 },
		"coordinator completed too few sync rounds")
	coord.Stop()
	driver.Stop()

	// Every site synced, none errored, and none ran past the console.
	consoleNow := console.Now()
	for i, st := range coord.Stats() {
		if st.Syncs < 5 {
			t.Errorf("site %s completed %d syncs, want >= 5", st.Site, st.Syncs)
		}
		if st.Errors > 0 {
			t.Errorf("site %s saw %d sync errors", st.Site, st.Errors)
		}
		if siteNow := sites[i].Engine.Now(); siteNow > consoleNow {
			t.Errorf("site %s ran past the console: %v > %v", st.Site, siteNow, consoleNow)
		}
	}
	// The skew bound: observed skew beyond one actual sync interval stays
	// well inside the virtual span of a single interval. Slack covers one
	// follower tick plus the clock-read round trip, both in virtual time.
	bound := speedup * syncEvery.Seconds()
	if excess := coord.MaxExcess(); excess > bound {
		t.Fatalf("skew exceeded one sync interval by %.0f virtual s (bound %.0f): %+v",
			excess, bound, coord.Stats())
	}
	if coord.MaxSkew() <= 0 {
		t.Fatal("coordinator observed no skew at all; measurement is broken")
	}
}
