package experiments

// The stage-and-compute scenario is the GRANDMA shape (PAPERS.md):
// a multi-site observation campaign stages shared imagery to the site
// that will compute on it, launches instances there, and accrues metered
// usage — the paper's "compute next to the data" workflow (§4) end to
// end through the console: catalog search → stage → launch → usage.
//
// Everything runs on the federation's virtual clock (no wall-clock
// drivers), so every metric is a deterministic function of the seed: the
// stage ETA is the simulated UDT flow's duration over the Chicago metro
// WAN, and the core-hours are the billing poller's accrual across the
// post-launch RunFor.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"osdc/internal/core"
	"osdc/internal/datastore"
	"osdc/internal/iaas"
	"osdc/internal/scenario"
	"osdc/internal/sim"
)

const stageAndComputeDesc = "GRANDMA-style campaign: stage EO-1 imagery to a site over the console, launch there, accrue usage"

// stageDataset is the imagery the campaign stages: §4's EO-1 archive,
// 30 TB of it, mastered on OSDC-Root.
const stageDataset = "EO-1 ALI and Hyperion"

// StageAndCompute stages the EO-1 archive from OSDC-Root to OSDC-Sullivan
// through the console, launches the campaign's instances on that cloud,
// lets two hours of metering accrue, and reports the whole path.
func StageAndCompute(seed uint64) (scenario.Result, error) {
	// No clock driver: requests issue one at a time and the engine only
	// advances when the scenario says so, so the run stays deterministic.
	d, err := core.StartConsole(core.ConsoleConfig{Seed: seed, Scale: 8, Serve: true})
	if err != nil {
		return scenario.Result{}, err
	}
	defer d.Close()
	f := d.Fed
	// Manual rounds: the scenario owns the engine, so the coordinator
	// runs with no background loop and stays deterministic.
	coord := f.StartReplication(core.ReplicationOptions{Factor: 1, Seed: seed, Sites: d.DataSites})
	d.Console.Replication = coord
	defer f.StopReplication()

	const user = "grandma"
	if err := d.Enroll(user, "pw-"+user, iaas.Quota{MaxInstances: 8, MaxCores: 64}); err != nil {
		return scenario.Result{}, err
	}
	c := &consoleClient{base: d.URL, user: user, client: d.Client}
	_ = c.login() // a failed login is on record: c.err reports it
	if err := c.err(); err != nil {
		return scenario.Result{}, err
	}

	// 1. Find the imagery in the catalog (the Matsu tag marks it).
	var search struct {
		Datasets []json.RawMessage `json:"datasets"`
	}
	if err := c.call("GET", "/console/datasets?q=matsu", "", http.StatusOK, &search); err != nil {
		return scenario.Result{}, err
	}

	// 2. Stage it to the compute site: Root (Kenwood) → Sullivan (NU)
	// crosses the metro WAN as one simulated UDT flow.
	var st datastore.StageStatus
	if err := c.call("POST", "/console/datasets/stage",
		fmt.Sprintf(`{"dataset":%q,"cloud":%q}`, stageDataset, core.ClusterSullivan),
		http.StatusAccepted, &st); err != nil {
		return scenario.Result{}, err
	}
	stageHours := st.ETASecs / sim.Hour

	// 3. The transfer rides the virtual clock; once it lands, staging
	// again reports the replica present.
	f.Engine.RunFor(st.ETASecs + sim.Minute)
	if err := c.call("POST", "/console/datasets/stage",
		fmt.Sprintf(`{"dataset":%q,"cloud":%q}`, stageDataset, core.ClusterSullivan),
		http.StatusOK, &st); err != nil {
		return scenario.Result{}, err
	}
	if st.State != "present" {
		return scenario.Result{}, fmt.Errorf("stage-and-compute: replica %q after the ETA", st.State)
	}

	// 4. Launch the campaign next to the data.
	launched := 0
	for i := 0; i < 2; i++ {
		if err := c.call("POST", "/console/launch",
			fmt.Sprintf(`{"cloud":%q,"name":"grandma-%d","flavor":"m1.large"}`, core.ClusterSullivan, i),
			http.StatusAccepted, nil); err != nil {
			return scenario.Result{}, err
		}
		launched++
	}

	// 5. Two hours of observation: the billing poller meters the VMs on
	// the same virtual clock the transfer rode.
	f.Engine.RunFor(2 * sim.Hour)
	var usage struct {
		CoreHours float64 `json:"core_hours"`
	}
	if err := c.call("GET", "/console/usage", "", http.StatusOK, &usage); err != nil {
		return scenario.Result{}, err
	}

	// 6. Placement view: the imagery now lives at two sites.
	var view struct {
		Placement []datastore.PlacementRow `json:"placement"`
	}
	coord.Round() // refresh the observed inventories
	if err := c.call("GET", "/console/datasets/replicas?dataset=EO-1+ALI+and+Hyperion", "",
		http.StatusOK, &view); err != nil {
		return scenario.Result{}, err
	}
	replicas := 0
	if len(view.Placement) == 1 {
		replicas = len(view.Placement[0].Sites)
	}

	stats := coord.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "stage-and-compute: %s (%d TB) staged %s → %s, then %d × m1.large for 2 h\n",
		stageDataset, int64(30), core.ClusterRoot, core.ClusterSullivan, launched)
	fmt.Fprintln(&b, strings.Repeat("-", 76))
	fmt.Fprintf(&b, "catalog search   : %d hits for 'matsu'\n", len(search.Datasets))
	fmt.Fprintf(&b, "stage transfer   : %.2f h over the metro WAN (%d retransmits)\n", stageHours, stats.Retransmits)
	fmt.Fprintf(&b, "placement        : %d sites hold the imagery\n", replicas)
	fmt.Fprintf(&b, "metered usage    : %.1f core-hours across the campaign\n", usage.CoreHours)

	return scenario.Result{
		Metrics: map[string]float64{
			"catalog-hits":     float64(len(search.Datasets)),
			"stage-tb":         float64(stats.BytesMoved) / float64(core.TB),
			"stage-hours":      stageHours,
			"stage-retransmit": float64(stats.Retransmits),
			"replica-sites":    float64(replicas),
			"launched":         float64(launched),
			"core-hours":       usage.CoreHours,
		},
		Table: b.String(),
	}, nil
}
