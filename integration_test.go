package osdc

// Repository-level integration tests. The scenario registry drives the
// broad coverage — every registered scenario must run and render — and the
// Figure 1 HTTP walk is checked hop by hop. The paper's numbers are rows
// of cmd/osdc-bench's ledger; Table 3's are also held here at seed 2012.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"osdc/internal/cloudapi"
	"osdc/internal/core"
	"osdc/internal/experiments"
	"osdc/internal/iaas"
	"osdc/internal/scenario"
	"osdc/internal/sim"
	"osdc/internal/tukey"
)

// TestAllScenariosRunAndRender iterates the registry: every scenario must
// run from seed 5, off the goldens' seed 7, and produce metrics and a
// table. The goldens pin each table's text, cmd/osdc-bench's ledger the
// paper's claims, and internal/experiments' tests what the scenarios
// beyond the paper show. New scenarios get this coverage for free.
func TestAllScenariosRunAndRender(t *testing.T) {
	// console-knee's default sweep stands up nine federations; one grid
	// point shows it runs and renders.
	points := map[string]map[string]float64{
		"console-knee": {"users": 128, "replicas": 2},
	}

	if len(scenario.Names()) < 11 {
		t.Fatalf("registry holds %v, want the nine paper scenarios plus the new ones", scenario.Names())
	}
	for _, s := range scenario.All() {
		t.Run(s.Name(), func(t *testing.T) {
			if p, ok := points[s.Name()]; ok {
				var err error
				if s, err = s.(scenario.Parametric).With(p); err != nil {
					t.Fatal(err)
				}
			}
			r, err := s.Run(5)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Metrics) == 0 {
				t.Fatalf("%s returned no metrics", s.Name())
			}
			if r.Table == "" {
				t.Fatalf("%s returned no table", s.Name())
			}
		})
	}
}

// TestFigure1TukeyEndToEnd walks the Figure 1 arrows with real HTTP at
// every hop: user → Tukey Console → middleware (auth + translation) →
// {OpenStack-dialect Adler, Eucalyptus-dialect Sullivan} → usage/billing.
// The fig1 scenario runs the same walk; this test keeps the per-hop
// assertions on status codes and dialect translation.
func TestFigure1TukeyEndToEnd(t *testing.T) {
	f, err := core.New(core.Options{Seed: 42, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Expose both clouds' native APIs over live HTTP.
	novaSrv := httptest.NewServer(cloudapi.NewServer(f.Adler))
	defer novaSrv.Close()
	eucaSrv := httptest.NewServer(cloudapi.NewServer(f.Sullivan))
	defer eucaSrv.Close()
	f.Tukey.AttachCloud(tukey.CloudConfig{API: cloudapi.NewRemote(core.ClusterAdler, "openstack", novaSrv.URL, nil)})
	f.Tukey.AttachCloud(tukey.CloudConfig{API: cloudapi.NewRemote(core.ClusterSullivan, "eucalyptus", eucaSrv.URL, nil)})

	// Console on top of the middleware + biller + catalog.
	consoleSrv := httptest.NewServer(&tukey.Console{MW: f.Tukey, Biller: f.Biller, Catalog: f.Catalog})
	defer consoleSrv.Close()

	f.EnrollResearcher("allison", "s3cret")
	f.Adler.SetQuota("allison", iaas.Quota{MaxInstances: 10, MaxCores: 64})
	f.Sullivan.SetQuota("allison", iaas.Quota{MaxInstances: 10, MaxCores: 64})

	post := func(path, body string, token string) *http.Response {
		req, err := http.NewRequest("POST", consoleSrv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("X-Tukey-Session", token)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path, token string) *http.Response {
		req, _ := http.NewRequest("GET", consoleSrv.URL+path, nil)
		req.Header.Set("X-Tukey-Session", token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// 1. Log in through the Shibboleth flow.
	resp := post("/login", `{"provider":"shibboleth","username":"allison","secret":"s3cret"}`, "")
	if resp.StatusCode != 200 {
		t.Fatalf("login status %d", resp.StatusCode)
	}
	var login struct {
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&login); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// 2. Provision one VM on each cloud stack via the console.
	for _, cloud := range []string{core.ClusterAdler, core.ClusterSullivan} {
		resp = post("/console/launch", `{"cloud":"`+cloud+`","name":"fig1-vm","flavor":"m1.large"}`, login.Token)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("launch on %s: status %d", cloud, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// 3. The aggregated list shows both, tagged by cloud, in OpenStack form.
	resp = get("/console/instances", login.Token)
	var list struct {
		Servers []tukey.TaggedServer `json:"servers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Servers) != 2 {
		t.Fatalf("aggregated servers = %d, want 2", len(list.Servers))
	}
	clouds := map[string]bool{}
	for _, s := range list.Servers {
		clouds[s.Cloud] = true
		if s.Status != "BUILD" && s.Status != "ACTIVE" {
			t.Fatalf("server status %q not in OpenStack form", s.Status)
		}
	}
	if !clouds[core.ClusterAdler] || !clouds[core.ClusterSullivan] {
		t.Fatalf("missing a cloud in aggregation: %v", clouds)
	}

	// 4. Metering: run the simulated clock for 3 hours, check usage via the
	// console (8 cores × 3 h = 24 core-hours).
	f.Engine.RunFor(3 * sim.Hour)
	resp = get("/console/usage", login.Token)
	var usage struct {
		CoreHours float64 `json:"core_hours"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&usage); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if usage.CoreHours < 23 || usage.CoreHours > 25 {
		t.Fatalf("core-hours = %v, want ~24", usage.CoreHours)
	}

	// 5. Public datasets module reachable from the same session.
	resp = get("/console/datasets?q=genomes", login.Token)
	var ds struct {
		Datasets []struct {
			Name string `json:"Name"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ds.Datasets) == 0 {
		t.Fatal("dataset search empty")
	}
}

func TestTable3ShapeAgainstPaper(t *testing.T) {
	got, err := experiments.Table3(2012)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range experiments.PaperTable3() {
		cfg := w.Config.String()
		// Within 15% of the paper's measured throughput on both sizes.
		for _, pair := range [][2]float64{{got.Metrics["mbit-108GB["+cfg+"]"], w.Mbit108}, {got.Metrics["mbit-1.1TB["+cfg+"]"], w.Mbit1T}} {
			ratio := pair[0] / pair[1]
			if ratio < 0.85 || ratio > 1.15 {
				t.Errorf("%s: measured %.0f vs paper %.0f mbit/s (ratio %.2f)", cfg, pair[0], pair[1], ratio)
			}
		}
		if diff := got.Metrics["llr-108GB["+cfg+"]"] - w.LLR108; diff > 0.06 || diff < -0.06 {
			t.Errorf("%s: LLR %.2f vs paper %.2f", cfg, got.Metrics["llr-108GB["+cfg+"]"], w.LLR108)
		}
	}
}
