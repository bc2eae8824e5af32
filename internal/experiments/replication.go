package experiments

// The replication-sweep scenario exercises the data plane the paper
// describes but never measures: curated datasets held at a target
// replication factor across federation sites, moved by UDT-class flows
// over the shared WAN (§1, §4, §6.3). The sweep crosses the replication
// factor with the backbone bandwidth and reports how much the coordinator
// moved, how long convergence took in virtual time, and what the links
// saw — all deterministic functions of the seed.

import (
	"context"
	"fmt"
	"strings"

	"osdc/internal/ark"
	"osdc/internal/datasets"
	"osdc/internal/datastore"
	"osdc/internal/dfs"
	"osdc/internal/scenario"
	"osdc/internal/sim"
	"osdc/internal/simdisk"
	"osdc/internal/simnet"
)

const replicationSweepDesc = "data plane: replication factor (1/2/3) × backbone bandwidth (1G/10G), coordinator convergence"

// sweepGB scales the catalog to gigabytes so the macro flow model stays
// fast at 1 Gbit while the byte ratios echo §4's disciplines.
const sweepGB = int64(1) << 30

// replicationSweepDatasets is the miniature catalog every sweep point
// replicates: names from §4, sizes scaled from TB to GB.
func replicationSweepDatasets() []datasets.Dataset {
	return []datasets.Dataset{
		{Name: "1000 Genomes", Discipline: "biology", SizeBytes: 8 * sweepGB},
		{Name: "EO-1 ALI and Hyperion", Discipline: "earth science", SizeBytes: 3 * sweepGB},
		{Name: "Common Crawl", Discipline: "information science", SizeBytes: 4 * sweepGB},
		{Name: "US Census", Discipline: "social science", SizeBytes: 1 * sweepGB},
	}
}

// sweepVolume builds a deterministic 2-brick volume for one sweep store.
func sweepVolume(e *sim.Engine, name string) (*dfs.Volume, error) {
	bricks := make([]*dfs.Brick, 2)
	for i := range bricks {
		d := simdisk.New(fmt.Sprintf("%s-d%d", name, i), 1<<40)
		bricks[i] = dfs.NewBrick(fmt.Sprintf("%s-b%d", name, i), d)
	}
	return dfs.NewVolume(e, 2, dfs.Version33, bricks)
}

// replicationPoint runs one (factor, bandwidth) cell: a fresh four-site
// data plane — masters on OSDC-Root — converged by coordinator rounds.
func replicationPoint(seed uint64, factor int, backbone float64) (datastore.Stats, sim.Time, error) {
	e := sim.NewEngine(seed)
	wan := simnet.DefaultWAN()
	wan.Backbone = backbone
	nw := simnet.BuildOSDCTopology(wan)

	catVol, err := sweepVolume(e, "cat")
	if err != nil {
		return datastore.Stats{}, 0, err
	}
	cat := datasets.NewCatalog(ark.NewService(), catVol)
	cat.AddCurator("curator")

	stores := make([]datastore.API, 0, 4)
	for _, s := range []struct{ name, loc string }{
		{"OSDC-Root", simnet.SiteChicagoKenwood},
		{"OSDC-Adler", simnet.SiteChicagoKenwood},
		{"OSDC-Sullivan", simnet.SiteChicagoNU},
		{"OCC-Matsu", simnet.SiteAMPATH},
	} {
		vol, err := sweepVolume(e, strings.ToLower(s.name))
		if err != nil {
			return datastore.Stats{}, 0, err
		}
		stores = append(stores, datastore.NewStore(s.name, s.loc, vol))
	}
	root := stores[0].(*datastore.Store)
	for _, d := range replicationSweepDatasets() {
		if _, err := cat.Publish("curator", d); err != nil {
			return datastore.Stats{}, 0, err
		}
		if err := root.Put(context.Background(), datastore.Replica{Dataset: d.Name, SizeBytes: d.SizeBytes, Version: 1}); err != nil {
			return datastore.Stats{}, 0, err
		}
	}

	coord := datastore.NewCoordinator(e, nw, cat, datastore.Options{Factor: factor, Seed: seed}, stores...)
	for rounds := 0; ; rounds++ {
		if rounds > 50 {
			return datastore.Stats{}, 0, fmt.Errorf("replication-sweep: factor %d did not converge", factor)
		}
		planned, _ := coord.Round()
		if planned == 0 && coord.InFlight() == 0 {
			break
		}
		if at, ok := coord.NextArrival(); ok {
			e.RunUntil(at)
		}
	}
	return coord.Stats(), e.Now(), nil
}

// ReplicationSweep crosses replication factor (1, 2, 3) with backbone
// bandwidth (1G, 10G) and reports bytes moved, convergence time, transfer
// counts and per-link retransmits per point.
func ReplicationSweep(seed uint64) (scenario.Result, error) {
	factors := []int{1, 2, 3}
	bands := []struct {
		label string
		bps   float64
	}{{"1G", 1 * simnet.Gbit}, {"10G", 10 * simnet.Gbit}}

	metrics := map[string]float64{"points": float64(len(factors) * len(bands))}
	var b strings.Builder
	fmt.Fprintf(&b, "replication sweep: 4 datasets (%d GB masters on OSDC-Root), 4 sites\n",
		totalSweepGB())
	fmt.Fprintln(&b, strings.Repeat("-", 76))
	fmt.Fprintf(&b, "%8s %6s %10s %12s %10s %8s %12s\n",
		"factor", "wan", "moved GB", "converge h", "transfers", "links", "retransmits")

	for _, f := range factors {
		for _, bw := range bands {
			st, at, err := replicationPoint(seed, f, bw.bps)
			if err != nil {
				return scenario.Result{}, err
			}
			key := fmt.Sprintf("[f%d-%s]", f, bw.label)
			movedGB := float64(st.BytesMoved) / float64(sweepGB)
			hours := float64(at) / sim.Hour
			metrics["moved-GB"+key] = movedGB
			metrics["converge-hours"+key] = hours
			metrics["transfers"+key] = float64(st.Transfers)
			metrics["links-used"+key] = float64(len(st.Links))
			metrics["retransmits"+key] = float64(st.Retransmits)
			metrics["max-in-flight"+key] = float64(st.MaxInFlight)
			fmt.Fprintf(&b, "%8d %6s %10.1f %12.3f %10d %8d %12d\n",
				f, bw.label, movedGB, hours, st.Transfers, len(st.Links), st.Retransmits)
		}
	}
	fmt.Fprintln(&b, "\nfactor 1 moves nothing (masters already placed); every added factor")
	fmt.Fprintln(&b, "re-ships the catalog once, and the 1G backbone pays several times the")
	fmt.Fprintln(&b, "10G wall (LAN-local placements dilute the pure-WAN ratio).")
	return scenario.Result{Metrics: metrics, Table: b.String()}, nil
}

func totalSweepGB() int64 {
	var n int64
	for _, d := range replicationSweepDatasets() {
		n += d.SizeBytes
	}
	return n / sweepGB
}
