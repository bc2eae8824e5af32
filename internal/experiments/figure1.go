package experiments

import (
	"fmt"
	"net/http"
	"strings"

	"osdc/internal/core"
	"osdc/internal/iaas"
	"osdc/internal/scenario"
	"osdc/internal/sim"
	"osdc/internal/tukey"
)

// Figure1 performs the Figure 1 walk — every hop of user → Tukey Console
// → middleware → {OpenStack Adler, Eucalyptus Sullivan} → billing — over
// live HTTP servers. Unlike the other experiments it exercises real
// net/http round trips, so one run is slower than a pure-simulation
// scenario but still headless and safe to fan out across seeds: no clock
// driver runs, so the engine advances only when the walk says so.
func Figure1(seed uint64) (scenario.Result, error) {
	d, err := core.StartConsole(core.ConsoleConfig{Seed: seed, Scale: 8, Serve: true})
	if err != nil {
		return scenario.Result{}, err
	}
	defer d.Close()
	if err := d.Enroll("demo", "pw-demo", iaas.Quota{MaxInstances: 10, MaxCores: 64}); err != nil {
		return scenario.Result{}, err
	}

	var b strings.Builder
	c := &consoleClient{base: d.URL, user: "demo", client: d.Client}
	_ = c.login() // a failed login is on record: c.err reports it
	if err := c.err(); err != nil {
		return scenario.Result{}, err
	}
	fmt.Fprintf(&b, "login: shibboleth demo@uchicago.edu → session granted\n")

	launched := 0
	for _, cloud := range []string{core.ClusterAdler, core.ClusterSullivan} {
		resp, err := c.do("POST", "/console/launch",
			fmt.Sprintf(`{"cloud":%q,"name":"fig1","flavor":"m1.large"}`, cloud), http.StatusAccepted)
		if err != nil {
			return scenario.Result{}, err
		}
		drain(resp)
		if resp.StatusCode == http.StatusAccepted {
			launched++
		}
		fmt.Fprintf(&b, "launch: m1.large on %-14s → HTTP %d (native dialect: %s)\n",
			cloud, resp.StatusCode, map[string]string{
				core.ClusterAdler: "OpenStack JSON", core.ClusterSullivan: "EC2 query/XML",
			}[cloud])
	}

	var list struct {
		Servers []tukey.TaggedServer `json:"servers"`
	}
	if err := c.call("GET", "/console/instances", "", http.StatusOK, &list); err != nil {
		return scenario.Result{}, err
	}
	fmt.Fprintln(&b, "aggregated OpenStack-format response:")
	clouds := map[string]bool{}
	for _, s := range list.Servers {
		clouds[s.Cloud] = true
		fmt.Fprintf(&b, "  cloud=%-14s id=%-22s status=%-6s flavor=%s\n", s.Cloud, s.ID, s.Status, s.Flavor)
	}

	d.Fed.Engine.RunFor(2 * sim.Hour)
	coreHours := d.Fed.Biller.CurrentUsage("demo").CoreHours()
	fmt.Fprintf(&b, "billing after 2 simulated hours: %.1f core-hours (8 cores running)\n", coreHours)
	return scenario.Result{
		Metrics: map[string]float64{
			"instances-launched": float64(launched),
			"clouds-aggregated":  float64(len(clouds)),
			"core-hours-2h":      coreHours,
		},
		Table: b.String(),
	}, nil
}
