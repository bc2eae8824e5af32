package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"osdc/internal/core"
	"osdc/internal/datastore"
)

// stageBody builds the /console/datasets/stage request for a dataset.
func stageBody(dataset, cloud string) string {
	b, _ := json.Marshal(map[string]string{"dataset": dataset, "cloud": cloud})
	return string(b)
}

// TestReplicationAndStagingInProcess wires -replication-factor in the
// single-process topology: the coordinator's background loop replicates
// the catalog onto the cloud stores, and a console stage call places a
// specific dataset.
func TestReplicationAndStagingInProcess(t *testing.T) {
	s, err := newServer(options{
		seed: 21, speedup: 86_400,
		replicationFactor: 1, replicationInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.handler)
	defer srv.Close()
	tok := login(t, srv.URL)

	// Factor 1 is already satisfied by OSDC-Root's masters: the
	// placement view reports every catalog dataset at its target.
	resp := consoleDo(t, srv.URL, "GET", "/console/datasets/replicas", tok, "")
	var view struct {
		Placement []datastore.PlacementRow `json:"placement"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(view.Placement) == 0 {
		t.Fatal("placement view is empty")
	}

	// Stage the Enron corpus (1 TB) onto Adler: accepted with an ETA,
	// then installed once the wall driver carries the virtual clock past
	// the simulated transfer.
	resp = consoleDo(t, srv.URL, "POST", "/console/datasets/stage", tok,
		stageBody("Enron Email", core.ClusterAdler))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stage = %d", resp.StatusCode)
	}
	var st datastore.StageStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != "staging" || st.ETASecs <= 0 {
		t.Fatalf("stage status = %+v", st)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := s.fed.Stores[core.ClusterAdler].Get("Enron Email"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("staged replica never landed (eta was %.0f virtual s)", st.ETASecs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStageAcrossSubprocessSite is the data plane's multi-process smoke
// test, the companion of TestCloudSiteSubprocess: a real cloud-site OS
// process serves its dataset store with -operator-secret, tukey-server
// attaches it, and a console stage call moves a dataset across the
// process boundary — authenticated puts only.
func TestStageAcrossSubprocessSite(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess and builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "cloud-site")
	build := exec.Command("go", "build", "-o", bin, "osdc/cmd/cloud-site")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cloud-site: %v\n%s", err, out)
	}

	const secret = "wire-secret"
	site := exec.Command(bin,
		"-cloud", core.ClusterSullivan, "-addr", "127.0.0.1:0",
		"-seed", "33", "-scale", "4", "-speedup", "86400",
		"-operator-secret", secret)
	stdout, err := site.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = site.Process.Kill()
		_ = site.Wait()
	}()
	var siteURL string
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		if i := strings.Index(scanner.Text(), "listening on "); i >= 0 {
			siteURL = strings.TrimSpace(scanner.Text()[i+len("listening on "):])
			break
		}
	}
	if siteURL == "" {
		t.Fatalf("cloud-site never printed its address (scan err %v)", scanner.Err())
	}

	// The subprocess enforces the shared secret: an unauthenticated put
	// is rejected before it touches the store.
	bare := datastore.NewRemote(core.ClusterSullivan, core.SiteOf(core.ClusterSullivan), siteURL, nil)
	if err := bare.Put(datastore.Replica{Dataset: "x", SizeBytes: 1, Version: 1}); err == nil {
		t.Fatal("unauthenticated put crossed the process boundary")
	}

	s, err := newServer(options{
		seed: 34, speedup: 86_400,
		sites:             siteList{{name: core.ClusterSullivan, url: siteURL}},
		replicationFactor: 1, replicationInterval: 20 * time.Millisecond,
		operatorSecret: secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.handler)
	defer srv.Close()
	tok := login(t, srv.URL)

	// Stage the Enron corpus onto the subprocess cloud.
	resp := consoleDo(t, srv.URL, "POST", "/console/datasets/stage", tok,
		stageBody("Enron Email", core.ClusterSullivan))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stage onto subprocess site = %d", resp.StatusCode)
	}
	var st datastore.StageStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.From != core.ClusterRoot {
		t.Fatalf("stage sourced from %q, want the Root masters", st.From)
	}

	// The replica lands in the OTHER PROCESS: read it back through the
	// site's own datasets plane.
	probe, err := datastore.ProbeRemote(siteURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if rep, err := probe.Get("Enron Email"); err == nil {
			if rep.Checksum != datastore.Fingerprint("Enron Email", rep.Version) {
				t.Fatalf("replica crossed the boundary corrupt: %+v", rep)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("staged replica never landed on the subprocess site (eta %.0f virtual s)", st.ETASecs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The console placement view agrees once a round observes it.
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp := consoleDo(t, srv.URL, "GET",
			"/console/datasets/replicas?dataset="+url.QueryEscape("Enron Email"), tok, "")
		var view struct {
			Placement []datastore.PlacementRow `json:"placement"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(view.Placement) == 1 && len(view.Placement[0].Sites) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("placement never showed the subprocess replica: %+v", view.Placement)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
