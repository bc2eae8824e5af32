package osdc

// Service-layer concurrency stress: concurrent Console traffic (login,
// launch, list, usage, datasets, status, terminate) plus direct reads of
// the billing, monitoring and catalog services, all while a wall-clock
// driver advances the simulation engine underneath. This test exists to be
// run with -race (CI does): it pins the locking added to sim, iaas, tukey,
// billing, monitor and datasets.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/core"
	"osdc/internal/iaas"
	"osdc/internal/sim"
	"osdc/internal/tukey"
)

func TestConsoleConcurrencyStress(t *testing.T) {
	f, err := core.New(core.Options{Seed: 99, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	novaSrv := httptest.NewServer(cloudapi.NewServer(f.Adler))
	defer novaSrv.Close()
	eucaSrv := httptest.NewServer(cloudapi.NewServer(f.Sullivan))
	defer eucaSrv.Close()
	f.Tukey.AttachCloud(tukey.CloudConfig{API: cloudapi.NewRemote(core.ClusterAdler, "openstack", novaSrv.URL, nil)})
	f.Tukey.AttachCloud(tukey.CloudConfig{API: cloudapi.NewRemote(core.ClusterSullivan, "eucalyptus", eucaSrv.URL, nil)})
	consoleSrv := httptest.NewServer(&tukey.Console{MW: f.Tukey, Biller: f.Biller, Catalog: f.Catalog})
	defer consoleSrv.Close()

	const workers = 6
	for i := 0; i < workers; i++ {
		u := fmt.Sprintf("stress%d", i)
		f.EnrollResearcher(u, "pw")
		f.Adler.SetQuota(u, iaas.Quota{MaxInstances: 10, MaxCores: 32})
		f.Sullivan.SetQuota(u, iaas.Quota{MaxInstances: 10, MaxCores: 32})
	}

	// The clock driver advances minute polls, monitor sweeps and VM boot
	// timers while the workers hammer the console.
	driver := sim.StartDriver(f.Engine, 30_000, 2*time.Millisecond)
	defer driver.Stop()

	var badStatus atomic.Int64
	var wg sync.WaitGroup
	var httpWG sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		httpWG.Add(1)
		go func() {
			defer wg.Done()
			defer httpWG.Done()
			user := fmt.Sprintf("stress%d", i)
			resp, err := http.Post(consoleSrv.URL+"/login", "application/json",
				strings.NewReader(`{"provider":"shibboleth","username":"`+user+`","secret":"pw"}`))
			if err != nil {
				badStatus.Add(1)
				return
			}
			var login struct {
				Token string `json:"token"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&login)
			resp.Body.Close()

			do := func(method, path, body string) {
				req, _ := http.NewRequest(method, consoleSrv.URL+path, strings.NewReader(body))
				req.Header.Set("X-Tukey-Session", login.Token)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					badStatus.Add(1)
					return
				}
				if resp.StatusCode >= 500 {
					badStatus.Add(1)
				}
				resp.Body.Close()
			}
			cloud := core.ClusterAdler
			if i%2 == 1 {
				cloud = core.ClusterSullivan
			}
			for it := 0; it < 10; it++ {
				do("POST", "/console/launch", fmt.Sprintf(`{"cloud":%q,"name":"s%d-%d","flavor":"m1.small"}`, cloud, i, it))
				do("GET", "/console/instances", "")
				do("GET", "/console/usage", "")
				do("GET", "/console/datasets?q=survey", "")
				do("GET", "/console/status", "")
			}
		}()
	}
	// A reader goroutine hits the service APIs directly — the paths the
	// public status page and operator tooling use.
	stopReads := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopReads:
				return
			default:
				_ = f.Biller.CurrentUsage("stress0")
				_ = f.Biller.Cycle()
				_ = f.UsageMon.PublicStatus()
				_ = f.Nagios.Alerts()
				_ = f.Catalog.Search("genomics")
				_ = f.Adler.Instances("")
				_ = f.Tukey.SessionCount()
			}
		}
	}()

	// The reader runs for as long as the HTTP workers do, so every direct
	// read path stays raced against the mutators for the whole window.
	go func() {
		httpWG.Wait()
		close(stopReads)
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress workers wedged")
	}
	if n := badStatus.Load(); n != 0 {
		t.Fatalf("%d requests failed or returned 5xx under concurrency", n)
	}
	if f.Engine.Now() == 0 {
		t.Fatal("driver never advanced the clock")
	}
}
