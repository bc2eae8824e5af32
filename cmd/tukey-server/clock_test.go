package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/core"
	"osdc/internal/sim"
	"osdc/internal/wire"
)

// TestFollowedClockRemoteTopology: with -remote-clouds and -clock-sync the
// site engines advance ONLY via coordinator pushes — so usage accruing
// through the whole console → remote → billing loop proves the clock plane
// works — and the observed skew stays within the sync-interval bound.
func TestFollowedClockRemoteTopology(t *testing.T) {
	const speedup = 86_400
	syncEvery := 10 * time.Millisecond
	s, err := newServer(options{seed: 11, speedup: speedup, remoteClouds: true, clockSync: syncEvery}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, site := range s.sites {
		if site.Mode != cloudapi.ClockFollow {
			t.Fatalf("site %s clock mode = %v, want follow", site.Cloud.Name, site.Mode)
		}
		if site.Follower() == nil {
			t.Fatalf("site %s has no follower", site.Cloud.Name)
		}
	}
	if s.fed.ClockSync == nil {
		t.Fatal("no clock coordinator started")
	}

	srv := httptest.NewServer(s.handler)
	defer srv.Close()
	tok := login(t, srv.URL)
	for _, cloud := range []string{core.ClusterAdler, core.ClusterSullivan} {
		resp := consoleDo(t, srv.URL, "POST", "/console/launch", tok,
			`{"cloud":"`+cloud+`","name":"sync-vm","flavor":"m1.large"}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("launch on %s: status %d", cloud, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Usage can only accrue if the followed site engines move — which only
	// the coordinator's pushes can cause.
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
			t.Fatal("usage still zero: followed site clocks are not advancing")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Let the coordinator complete enough rounds for the skew statistics
	// to mean something, and require the followed engines to have actually
	// moved (only pushes can move them).
	deadline = time.Now().Add(10 * time.Second)
	for s.fed.ClockSync.Syncs() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator completed only %d sync rounds", s.fed.ClockSync.Syncs())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, site := range s.sites {
		if sim.Time(site.Server().Clock.ClockStatus().Now) == 0 {
			t.Errorf("site %s engine never advanced despite syncs", site.Cloud.Name)
		}
	}

	// Skew bound: no site trails the console by more than one actual sync
	// interval plus sub-interval slack (half an interval's virtual span
	// covers the follower tick and the clock-read round trip).
	stats := s.fed.ClockSync.Stats()
	if len(stats) != 2 {
		t.Fatalf("coordinator tracks %d sites, want 2: %+v", len(stats), stats)
	}
	bound := 0.5 * speedup * syncEvery.Seconds()
	for _, st := range stats {
		if st.Syncs == 0 {
			t.Errorf("site %s never synced", st.Site)
		}
		if st.Errors > 0 {
			t.Errorf("site %s: %d sync errors", st.Site, st.Errors)
		}
		if st.MaxExcess > bound {
			t.Errorf("site %s skew exceeded one sync interval by %.0f virtual s (slack %.0f)",
				st.Site, st.MaxExcess, bound)
		}
	}
	// The console also never sees a site clock ahead of its own.
	consoleNow := s.fed.Engine.Now()
	for _, site := range s.sites {
		if siteNow := sim.Time(site.Server().Clock.ClockStatus().Now); siteNow > consoleNow {
			t.Errorf("site %s ran past the console: %v > %v", site.Cloud.Name, siteNow, consoleNow)
		}
	}
}

// TestClockEndpointServesConsoleTime: GET /clock exposes the console
// engine's virtual time for polling cloud-site processes.
func TestClockEndpointServesConsoleTime(t *testing.T) {
	s, err := newServer(options{seed: 12, speedup: 86_400}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.handler)
	defer srv.Close()

	read := func() float64 {
		resp, err := http.Get(srv.URL + "/clock")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Now float64 `json:"now"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Now
	}
	first := read()
	deadline := time.Now().Add(5 * time.Second)
	for read() <= first {
		if time.Now().After(deadline) {
			t.Fatal("/clock never advanced")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionFileSurvivesRestart wires -session-file end to end: a token
// minted before a console "restart" still authenticates after it.
func TestSessionFileSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.json")
	s1, err := newServer(options{seed: 13, sessionFile: path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(s1.console)
	tok := login(t, srv1.URL)
	srv1.Close()
	s1.Close()

	s2, err := newServer(options{seed: 13, sessionFile: path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	srv2 := httptest.NewServer(s2.console)
	defer srv2.Close()
	resp := consoleDo(t, srv2.URL, "GET", "/console/status", tok, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted console rejected the old session: %d", resp.StatusCode)
	}
}

// TestStatusReportsPerSitePollErrors: the console status view carries the
// per-cloud poller health maps (zero for healthy sites).
func TestStatusReportsPerSitePollErrors(t *testing.T) {
	s, err := newServer(options{seed: 14, remoteClouds: true, speedup: 86_400}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.console)
	defer srv.Close()
	tok := login(t, srv.URL)

	resp := consoleDo(t, srv.URL, "GET", "/console/status", tok, "")
	defer resp.Body.Close()
	var status struct {
		Clouds       []string         `json:"clouds"`
		PollErrors   map[string]int64 `json:"poll_errors"`
		SampleErrors map[string]int64 `json:"sample_errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	for _, m := range []map[string]int64{status.PollErrors, status.SampleErrors} {
		if len(m) != 2 {
			t.Fatalf("per-site error map has %d entries, want 2: %+v", len(m), status)
		}
		for cloud, n := range m {
			if n != 0 {
				t.Errorf("healthy site %s shows %d errors", cloud, n)
			}
		}
	}
}

// TestCloudSiteSubprocess is the multi-process federation smoke test:
// OSDC-Sullivan runs as a real cloud-site OS process (built from
// cmd/cloud-site), tukey-server attaches it with -site, the clock
// coordinator pushes the console's time into it, and the full console flow
// — login → status → launch → list → usage accrual → terminate — crosses
// the process boundary. Bounded skew is asserted from the coordinator's
// observations, and SIGTERM ends the site with exit status 0.
func TestCloudSiteSubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess and builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "cloud-site")
	build := exec.Command("go", "build", "-o", bin, "osdc/cmd/cloud-site")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cloud-site: %v\n%s", err, out)
	}

	site := exec.Command(bin,
		"-cloud", core.ClusterSullivan, "-addr", "127.0.0.1:0",
		"-seed", "99", "-scale", "4", "-clock-follow", "push")
	stdout, err := site.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Start(); err != nil {
		t.Fatal(err)
	}
	exited, waiting := make(chan error, 1), false
	defer func() {
		_ = site.Process.Kill()
		if waiting {
			<-exited
		} else {
			_ = site.Wait()
		}
	}()

	// The spawn contract: the site prints its ephemeral URL on stdout.
	var siteURL string
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			siteURL = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if siteURL == "" {
		t.Fatalf("cloud-site never printed its address (scan err %v)", scanner.Err())
	}
	// The site prints nothing more on stdout, so Wait may run from here on.
	waiting = true
	go func() { exited <- site.Wait() }()

	const speedup = 86_400
	syncEvery := 10 * time.Millisecond
	s, err := newServer(options{
		seed: 15, speedup: speedup, clockSync: syncEvery,
		sites: siteList{{name: core.ClusterSullivan, url: siteURL}},
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.handler)
	defer srv.Close()
	tok := login(t, srv.URL)

	// Status: the in-process Adler and the subprocess Sullivan.
	resp := consoleDo(t, srv.URL, "GET", "/console/status", tok, "")
	var status struct {
		Clouds []string `json:"clouds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(status.Clouds) != 2 {
		t.Fatalf("clouds = %v, want Adler + subprocess Sullivan", status.Clouds)
	}

	// Launch on the subprocess cloud: console → middleware → EC2 dialect
	// over the wire → another OS process.
	resp = consoleDo(t, srv.URL, "POST", "/console/launch", tok,
		`{"cloud":"`+core.ClusterSullivan+`","name":"proc-vm","flavor":"m1.large"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch on subprocess site: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The listing crosses the boundary too.
	resp = consoleDo(t, srv.URL, "GET", "/console/instances", tok, "")
	var list struct {
		Servers []struct {
			Cloud string `json:"cloud"`
			ID    string `json:"id"`
		} `json:"servers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Servers) != 1 || list.Servers[0].Cloud != core.ClusterSullivan {
		t.Fatalf("aggregated listing = %+v", list.Servers)
	}

	// Usage accrual proves the subprocess engine advances — and the ONLY
	// thing that can advance it is the coordinator pushing the console's
	// clock across the process boundary.
	deadline := time.Now().Add(15 * time.Second)
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
			t.Fatal("usage never accrued: subprocess clock is not being synced")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Bounded skew across the process boundary.
	if s.fed.ClockSync == nil {
		t.Fatal("no coordinator running")
	}
	deadline = time.Now().Add(10 * time.Second)
	for s.fed.ClockSync.Syncs() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator completed only %d sync rounds against the subprocess", s.fed.ClockSync.Syncs())
		}
		time.Sleep(5 * time.Millisecond)
	}
	bound := 0.5 * speedup * syncEvery.Seconds()
	for _, st := range s.fed.ClockSync.Stats() {
		if st.Syncs == 0 {
			t.Errorf("site %s never synced", st.Site)
		}
		if st.MaxExcess > bound {
			t.Errorf("site %s skew exceeded one sync interval by %.0f virtual s (slack %.0f)",
				st.Site, st.MaxExcess, bound)
		}
	}

	// Terminate through the console; the subprocess cloud empties.
	resp = consoleDo(t, srv.URL, "POST", "/console/terminate", tok,
		`{"cloud":"`+core.ClusterSullivan+`","id":"`+list.Servers[0].ID+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("terminate across processes: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// SIGTERM drains the site and it exits cleanly within the grace.
	if err := site.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err // for the deferred cleanup
		if err != nil {
			t.Fatalf("cloud-site after SIGTERM: %v, want exit status 0", err)
		}
	case <-time.After(wire.ShutdownGrace + 5*time.Second):
		t.Fatal("cloud-site did not exit within the grace after SIGTERM")
	}
}
