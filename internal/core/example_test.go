package core_test

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"

	"osdc/internal/billing"
	"osdc/internal/core"
	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// ExampleStartConsole stands the federation up behind its console and
// walks a researcher through it over HTTP: log in through the campus
// Shibboleth IdP, launch one VM on each cloud stack, list them in one
// OpenStack-format view, search the public data catalog, and read the
// metered usage near the end of the first billing cycle.
func ExampleStartConsole() {
	// No clock driver: the engine advances only when the example says so.
	d, err := core.StartConsole(core.ConsoleConfig{Seed: 7, Scale: 8, Serve: true})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	if err := d.Enroll("grace", "hopper", iaas.Quota{MaxInstances: 10, MaxCores: 64}); err != nil {
		log.Fatal(err)
	}

	var token string
	call := func(method, path, body string, out any) int {
		req, err := http.NewRequest(method, d.URL+path, strings.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		req.Header.Set("X-Tukey-Session", token)
		resp, err := d.Client.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
		return resp.StatusCode
	}

	var login struct{ Token string }
	status := call("POST", "/login", `{"provider":"shibboleth","username":"grace","secret":"hopper"}`, &login)
	token = login.Token
	fmt.Println("login:", status)

	for _, cloud := range []string{core.ClusterAdler, core.ClusterSullivan} {
		var launched struct{ Server struct{ ID, Status string } }
		status := call("POST", "/console/launch", fmt.Sprintf(`{"cloud":%q,"name":"analysis","flavor":"m1.large"}`, cloud), &launched)
		fmt.Printf("launch on %s: %d %s\n", cloud, status, launched.Server.Status)
	}

	var list struct {
		Servers []struct{ Cloud, Name string }
	}
	call("GET", "/console/instances", "", &list)
	for _, s := range list.Servers {
		fmt.Printf("instance %s on %s\n", s.Name, s.Cloud)
	}

	var found struct{ Datasets []struct{ Name string } }
	call("GET", "/console/datasets?q=genomes", "", &found)
	for _, ds := range found.Datasets {
		fmt.Println("dataset:", ds.Name)
	}

	// Two 4-core VMs run for the billing cycle, less its last day.
	d.Fed.RunFor((billing.DaysPerCycle - 1) * sim.Day)
	var usage struct {
		CoreHours float64 `json:"core_hours"`
		Cycle     int
	}
	call("GET", "/console/usage", "", &usage)
	fmt.Printf("cycle %d: %.0f core-hours\n", usage.Cycle, usage.CoreHours)
	// Output:
	// login: 200
	// launch on OSDC-Adler: 202 BUILD
	// launch on OSDC-Sullivan: 202 BUILD
	// instance analysis on OSDC-Adler
	// instance analysis on OSDC-Sullivan
	// dataset: 1000 Genomes
	// cycle 1: 5568 core-hours
}
