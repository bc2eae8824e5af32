package tukey

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"osdc/internal/ark"
	"osdc/internal/datasets"
	"osdc/internal/datastore"
	"osdc/internal/dfs"
	"osdc/internal/sim"
	"osdc/internal/simdisk"
	"osdc/internal/simnet"
)

// TestRouteCostTable pins the route-weighted rate-limit charges: a launch
// costs an order of magnitude more than a status read, staging sits in
// between, and unknown routes default to one token.
func TestRouteCostTable(t *testing.T) {
	want := map[string]float64{
		"POST /console/launch":           10,
		"POST /console/terminate":        5,
		"POST /console/stop":             5,
		"POST /console/datasets/stage":   4,
		"GET /console/instances":         2,
		"GET /console/status":            1,
		"GET /console/usage":             1,
		"GET /console/datasets":          1,
		"GET /console/datasets/replicas": 1,
		"POST /login":                    1,
		"GET /no/such/route":             1,
	}
	for key, cost := range want {
		method, path, _ := splitRouteKey(key)
		if got := routeCost(method, path); got != cost {
			t.Errorf("routeCost(%s) = %g, want %g", key, got, cost)
		}
	}
	// The ordering the ROADMAP asked for: launch ≫ dataset stage ≫ read.
	launch := routeCost("POST", "/console/launch")
	stage := routeCost("POST", "/console/datasets/stage")
	read := routeCost("GET", "/console/status")
	if !(launch > stage && stage > read) {
		t.Fatalf("cost ordering broken: launch %g, stage %g, read %g", launch, stage, read)
	}
}

func splitRouteKey(key string) (method, path string, ok bool) {
	for i := range key {
		if key[i] == ' ' {
			return key[:i], key[i+1:], true
		}
	}
	return "", key, false
}

// TestRouteWeightedLimiting proves the weights bite through the console: a
// bucket sized for many reads admits only a few launches.
func TestRouteWeightedLimiting(t *testing.T) {
	r := newRig(t)
	limiter := NewRateLimiter(0.001, 25) // effectively no refill in-test
	console := &Console{MW: r.mw, Limiter: limiter}
	srv := httptest.NewServer(console)
	t.Cleanup(srv.Close)
	tok := consoleLogin(t, srv)

	// 25 tokens admit two launches (10 each) and reject the third, while
	// the same budget would have admitted 25 status reads.
	launches := 0
	for i := 0; i < 3; i++ {
		resp := consoleDo(t, srv, "POST", "/console/launch", tok,
			`{"cloud":"adler","name":"w","flavor":"m1.small"}`)
		if resp.StatusCode == http.StatusAccepted {
			launches++
		} else if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("launch %d status = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if launches != 2 {
		t.Fatalf("bucket of 25 admitted %d launches, want 2 (cost 10 each)", launches)
	}
	// The leftover 5 tokens still serve cheap reads.
	for i := 0; i < 5; i++ {
		resp := consoleDo(t, srv, "GET", "/console/status", tok, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d after launch storm = %d, want 200", i, resp.StatusCode)
		}
	}
	resp := consoleDo(t, srv, "GET", "/console/status", tok, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained bucket still admitted a read: %d", resp.StatusCode)
	}
}

// dataPlaneRig is a console with the replication coordinator wired in:
// two stores over the WAN topology, masters on site-root.
func dataPlaneRig(t *testing.T) (*rig, *httptest.Server, *datastore.Coordinator, *datastore.Store) {
	t.Helper()
	r := newRig(t)
	nw := simnet.BuildOSDCTopology(simnet.DefaultWAN())

	vol := func(name string) *dfs.Volume {
		d1 := simdisk.New(name+"-d0", 1<<40)
		d2 := simdisk.New(name+"-d1", 1<<40)
		v, err := dfs.NewVolume(r.e, 2, dfs.Version33,
			[]*dfs.Brick{dfs.NewBrick(name+"-b0", d1), dfs.NewBrick(name+"-b1", d2)})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cat := datasets.NewCatalog(ark.NewService(), vol("cat"))
	cat.AddCurator("walt")
	if _, err := cat.Publish("walt", datasets.Dataset{Name: "EO-1 Scenes", SizeBytes: 2 << 30, Discipline: "earth science"}); err != nil {
		t.Fatal(err)
	}
	root := datastore.NewStore("site-root", simnet.SiteChicagoKenwood, vol("root"))
	adler := datastore.NewStore("adler", simnet.SiteChicagoKenwood, vol("adler"))
	if err := root.Put(context.Background(), datastore.Replica{Dataset: "EO-1 Scenes", SizeBytes: 2 << 30, Version: 1}); err != nil {
		t.Fatal(err)
	}
	coord := datastore.NewCoordinator(r.e, nw, cat, datastore.Options{Factor: 1, Seed: 7}, root, adler)

	console := &Console{MW: r.mw, Catalog: cat, Replication: coord}
	srv := httptest.NewServer(console)
	t.Cleanup(srv.Close)
	return r, srv, coord, adler
}

// TestConsoleStageAndReplicas walks the data-plane routes end to end:
// stage a dataset onto the cloud's site, advance the virtual clock past
// the transfer, and watch the placement view pick the replica up.
func TestConsoleStageAndReplicas(t *testing.T) {
	r, srv, coord, adlerStore := dataPlaneRig(t)
	tok := consoleLogin(t, srv)

	// Both routes require a session.
	resp := consoleDo(t, srv, "GET", "/console/datasets/replicas", "", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated replicas = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = consoleDo(t, srv, "POST", "/console/datasets/stage", "", `{"dataset":"x","cloud":"y"}`)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated stage = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Stage EO-1 onto the adler site: accepted, with a transfer ETA.
	resp = consoleDo(t, srv, "POST", "/console/datasets/stage", tok,
		`{"dataset":"EO-1 Scenes","cloud":"adler"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stage = %d", resp.StatusCode)
	}
	var st datastore.StageStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != "staging" || st.From != "site-root" || st.ETASecs <= 0 {
		t.Fatalf("stage status = %+v", st)
	}

	// Let the flow arrive on the virtual clock, then re-stage: present.
	r.e.RunFor(sim.Duration(st.ETASecs) + sim.Second)
	resp = consoleDo(t, srv, "POST", "/console/datasets/stage", tok,
		`{"dataset":"EO-1 Scenes","cloud":"adler"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-stage = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != "present" {
		t.Fatalf("re-stage state = %q, want present", st.State)
	}
	if _, err := adlerStore.Get(context.Background(), "EO-1 Scenes"); err != nil {
		t.Fatalf("staged replica missing from the store: %v", err)
	}

	// The placement view reports the replica after a round refreshes it.
	coord.Round()
	resp = consoleDo(t, srv, "GET", "/console/datasets/replicas?dataset="+url.QueryEscape("EO-1 Scenes"), tok, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replicas = %d", resp.StatusCode)
	}
	var view struct {
		Placement []datastore.PlacementRow `json:"placement"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(view.Placement) != 1 || len(view.Placement[0].Sites) != 2 {
		t.Fatalf("placement = %+v, want EO-1 on both sites", view.Placement)
	}

	// Unknown dataset or cloud: 409 with the coordinator's error.
	resp = consoleDo(t, srv, "POST", "/console/datasets/stage", tok,
		`{"dataset":"No Such","cloud":"adler"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stage unknown dataset = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Without a coordinator the routes answer 503.
	bare := httptest.NewServer(&Console{MW: r.mw})
	t.Cleanup(bare.Close)
	req, _ := http.NewRequest("GET", bare.URL+"/console/datasets/replicas", nil)
	req.Header.Set("X-Tukey-Session", tok)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("replicas without coordinator = %d, want 503", resp2.StatusCode)
	}
}
