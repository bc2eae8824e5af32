package experiments

// The mixed-workload scenario is not a paper artifact: it composes the
// pieces the paper describes separately — Table 1's traffic classes,
// Table 2's federation, §6.4's metering, §7.2's WAN transfers — into one
// federation-wide run, which is the shape of load a production OSDC
// actually saw.

import (
	"fmt"
	"strings"

	"osdc/internal/cloudapi"
	"osdc/internal/core"
	"osdc/internal/iaas"
	"osdc/internal/scenario"
	"osdc/internal/sim"
	"osdc/internal/udr"
	"osdc/internal/workload"
)

const mixedWorkloadDesc = "federation-wide mix: web + science flows, VM metering, and a WAN elephant in one run"

// MixedWorkload builds the federation, offers both Table 1 traffic classes,
// keeps eight VM cores metered on the federation clock, and ships the
// largest science elephant over the Chicago↔LVOC path with UDR — all from
// one seed. shards > 1 runs the same composition on the sharded kernel
// (instance timers homed by ID, all shards advanced in lockstep); every
// metric is invariant across shard counts because billing samples count
// BUILD and ACTIVE alike, so the only cross-shard reads are
// transition-insensitive.
func MixedWorkload(seed uint64, shards int) (scenario.Result, error) {
	f, err := core.New(core.Options{Seed: seed, Scale: 8, Shards: shards})
	if err != nil {
		return scenario.Result{}, err
	}

	// Compute side: one researcher with four m1.large per cloud, driven
	// through the same CloudAPI transports the services use.
	const user = "mixed"
	launched := 0
	for _, c := range []cloudapi.CloudAPI{f.AdlerAPI, f.SullivanAPI} {
		if err := c.SetQuota(user, iaas.Quota{MaxInstances: 10, MaxCores: 64}); err != nil {
			return scenario.Result{}, err
		}
		for v := 0; v < 2; v++ {
			if _, err := c.Launch(user, fmt.Sprintf("mixed-%d", v), "m1.large", ""); err != nil {
				return scenario.Result{}, err
			}
			launched++
		}
	}

	// Traffic side: both Table 1 classes from the same seed.
	rng := sim.NewRNG(seed)
	p := workload.DefaultParams()
	p.Flows = 4000
	web := workload.Sample(rng, workload.ClassWeb, p)
	science := workload.Sample(rng, workload.ClassScience, p)

	// WAN side: the largest science elephant rides UDR Chicago → LVOC.
	path := ChicagoLVOCPath(seed)
	cfg := udr.Table3Configs()[0] // udr, no encryption
	res, caps := udr.Transfer(rng, cfg, path, science.MaxBytes)

	// Let six hours of metering accrue while everything above is
	// "running". f.RunFor advances the whole kernel — anchor-only RunFor
	// would leave off-anchor boot timers frozen; at shards <= 1 it is the
	// same call as f.Engine.RunFor.
	f.RunFor(6 * sim.Hour)
	coreHours := f.Biller.CurrentUsage(user).CoreHours()

	var b strings.Builder
	fmt.Fprintf(&b, "federation mixed workload (seed %d)\n", seed)
	fmt.Fprintln(&b, strings.Repeat("-", 64))
	fmt.Fprintf(&b, "web traffic      : %v\n", web)
	fmt.Fprintf(&b, "science traffic  : %v\n", science)
	fmt.Fprintf(&b, "VMs metered      : %d m1.large for 6h → %.1f core-hours\n", launched, coreHours)
	fmt.Fprintf(&b, "elephant via UDR : %s\n", res)

	metrics := map[string]float64{
		"web-total-GB":           float64(web.TotalBytes) / (1 << 30),
		"science-total-TB":       float64(science.TotalBytes) / (1 << 40),
		"science-elephant-share": science.ElephantShare,
		"vm-core-hours":          coreHours,
		"elephant-bytes":         float64(science.MaxBytes),
		"elephant-mbit":          res.ThroughputMbit(),
		"elephant-llr":           res.LLR(caps),
		"elephant-hours":         res.Duration / sim.Hour,
	}
	// Only a sharded run adds the key: the default golden predates the
	// shard axis and must stay byte-identical.
	if shards > 1 {
		metrics["shards"] = float64(f.Set.K())
	}
	return scenario.Result{Metrics: metrics, Table: b.String()}, nil
}
