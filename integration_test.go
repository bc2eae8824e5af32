package osdc

// Repository-level integration tests. The scenario registry drives the
// broad coverage — every registered scenario must run and render — while
// the tests below it keep the assertions that need structured results: the
// Figure 1 HTTP walk hop by hop and Table 3's values against the paper.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"osdc/internal/core"
	"osdc/internal/experiments"
	"osdc/internal/iaas"
	"osdc/internal/scenario"
	"osdc/internal/sim"
	"osdc/internal/tukey"
)

// TestAllScenariosRunAndRender iterates the registry: every scenario must
// run from a small seed, produce metrics and a table, and satisfy its
// scenario-specific spot checks. New scenarios get the generic coverage
// for free; add a checks entry only when there is something extra to pin.
func TestAllScenariosRunAndRender(t *testing.T) {
	checks := map[string]func(t *testing.T, r scenario.Result){
		"table1": func(t *testing.T, r scenario.Result) {
			if !strings.Contains(r.Table, "Commercial CSP") {
				t.Fatal("table 1 format")
			}
			if r.Metrics["science-elephant-share"] < 0.9 {
				t.Fatalf("science traffic lost its elephants: %v", r.Metrics)
			}
		},
		"table2": func(t *testing.T, r scenario.Result) {
			if !strings.Contains(r.Table, "OCC-Y") {
				t.Fatal("table 2 format")
			}
		},
		"table3": func(t *testing.T, r scenario.Result) {
			if !strings.Contains(r.Table, "udr (no encryption)") {
				t.Fatalf("table 3 format:\n%s", r.Table)
			}
		},
		"fig2": func(t *testing.T, r scenario.Result) {
			if r.Metrics["flood-tiles"] == 0 || !strings.Contains(r.Table, "≈") {
				t.Fatalf("no flood in figure 2 output:\n%s", r.Table)
			}
			if r.Metrics["map-locality"] < 0.5 {
				t.Fatalf("map locality %.2f suspiciously low", r.Metrics["map-locality"])
			}
		},
		"fig3": func(t *testing.T, r scenario.Result) {
			for _, cluster := range []string{"OSDC-Adler", "OSDC-Sullivan", "OSDC-Root", "OCC-Y", "OCC-Matsu"} {
				if !strings.Contains(r.Table, cluster) {
					t.Fatalf("figure 3 missing %s:\n%s", cluster, r.Table)
				}
			}
			if strings.Count(r.Table, "solid") != 3 || strings.Count(r.Table, "partial") != 2 {
				t.Fatalf("figure 3 arrows wrong:\n%s", r.Table)
			}
		},
		"cost": func(t *testing.T, r scenario.Result) {
			if !strings.Contains(r.Table, "crossover") {
				t.Fatal("cost format")
			}
		},
		"provision": func(t *testing.T, r scenario.Result) {
			if !strings.Contains(r.Table, "speedup") {
				t.Fatal("provision format")
			}
			if r.Metrics["speedup"] <= 1 {
				t.Fatalf("automation not faster than manual: %v", r.Metrics)
			}
		},
		"mixed-workload": func(t *testing.T, r scenario.Result) {
			if r.Metrics["vm-core-hours"] <= 0 || r.Metrics["elephant-mbit"] <= 0 {
				t.Fatalf("mixed workload left a subsystem idle: %v", r.Metrics)
			}
		},
		"wan-contention": func(t *testing.T, r scenario.Result) {
			if f := r.Metrics["fairness[4-flows]"]; f < 0.8 {
				t.Fatalf("4 identical UDT flows shared unfairly: %.3f", f)
			}
			if r.Metrics["utilization[8-flows]"] < r.Metrics["utilization[1-flows]"] {
				t.Fatalf("more flows should fill the pipe during ramp-up: %v", r.Metrics)
			}
		},
	}

	// console-knee's default sweep stands up nine federations; one grid
	// point shows it runs and renders. The osdc-bench -json golden keeps
	// the full sweep.
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
			if chk := checks[s.Name()]; chk != nil {
				chk(t, r)
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
	novaSrv := httptest.NewServer(&iaas.NovaAPI{Cloud: f.Adler})
	defer novaSrv.Close()
	eucaSrv := httptest.NewServer(&iaas.EucaAPI{Cloud: f.Sullivan})
	defer eucaSrv.Close()
	f.Tukey.AttachCloud(tukey.CloudConfig{Name: core.ClusterAdler, Stack: "openstack", Endpoint: novaSrv.URL})
	f.Tukey.AttachCloud(tukey.CloudConfig{Name: core.ClusterSullivan, Stack: "eucalyptus", Endpoint: eucaSrv.URL})

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
	got := experiments.Table3(2012)
	want := experiments.PaperTable3()
	if len(got) != len(want) {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		// Within 15% of the paper's measured throughput on both sizes.
		for _, pair := range [][2]float64{{g.Mbit108, w.Mbit108}, {g.Mbit1T, w.Mbit1T}} {
			ratio := pair[0] / pair[1]
			if ratio < 0.85 || ratio > 1.15 {
				t.Errorf("%s: measured %.0f vs paper %.0f mbit/s (ratio %.2f)",
					g.Config, pair[0], pair[1], ratio)
			}
		}
		if diff := g.LLR108 - w.LLR108; diff > 0.06 || diff < -0.06 {
			t.Errorf("%s: LLR %.2f vs paper %.2f", g.Config, g.LLR108, w.LLR108)
		}
	}
}
